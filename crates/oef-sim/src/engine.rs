//! The round-based simulation engine.
//!
//! OEF (and every baseline) is a round-based scheduler: every `round_secs` (five
//! minutes in the paper) the fair-share evaluator recomputes the allocation from the
//! tenants' reported speedups, the placer turns the fractional shares into whole
//! devices on hosts, and the jobs then train until the next round.  The engine
//! reproduces that loop, modelling the runtime effects that separate the "estimated"
//! from the "actual" throughput in the paper's figures: rounding, host-level network
//! contention and the cross-GPU-type straggler effect.
//!
//! Outside the policy's solve a round costs O(tenants + resident jobs + devices
//! placed · log hosts) and allocates a handful of vectors, none of them per tenant
//! or per job.  The engine walks the resident jobs twice, linearly and without
//! hashing or sorting: once before the solve (arrivals, who is active, each tenant's
//! smallest runnable job) and once after placement (starvation of the jobs that
//! received nothing, read from one dense mark per job); the placer reads the
//! runnable jobs of the tenants that hold devices once more, to order them.  It
//! hands over each placed job as `(tenant, position in tenant.jobs, devices)`, so
//! the engine reaches the job by index and prices the placement — type mix, hosts
//! spanned — straight from the device slice.  Every buffer of the round lives in
//! [`RoundScratch`] and is reused; the solved allocation's rows are moved, not
//! copied, into the round's record.

use crate::metrics::{JctStats, RoundRecord, SimulationReport, TenantRound};
use oef_cluster::{
    distinct_hosts, ClusterState, ContentionModel, DevicePlacer, GpuType, JobState, PlacerScratch,
    Profiler, RoundingPlacer, StragglerModel, StragglerStats,
};
use oef_core::{Allocation, AllocationPolicy, Result, SpeedupMatrix};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Length of a scheduling round in seconds (the paper uses 5 minutes).
    pub round_secs: f64,
    /// Profiling agent used to turn true speedups into reported ones for honest
    /// tenants.  Cheating tenants bypass the profiler and report their inflated vector.
    pub profiler: Profiler,
    /// Network-contention model applied to multi-host placements.
    pub contention: ContentionModel,
    /// Straggler model applied to cross-GPU-type placements.
    pub straggler: StragglerModel,
    /// Device placer configuration.
    pub placer: DevicePlacer,
    /// When `false` the engine skips rounding/placement and advances jobs with the
    /// fluid (fractional) allocation — useful for algorithm-only experiments and for
    /// the "estimated" ablation bars.
    pub physical_placement: bool,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            round_secs: 300.0,
            profiler: Profiler::exact(),
            contention: ContentionModel::default(),
            straggler: StragglerModel::default(),
            placer: DevicePlacer::default(),
            physical_placement: true,
        }
    }
}

/// The simulation engine: owns the cluster state and drives scheduling rounds.
#[derive(Debug)]
pub struct SimulationEngine {
    state: ClusterState,
    config: SimulationConfig,
    rounding: RoundingPlacer,
    straggler_stats: StragglerStats,
    now: f64,
    round: usize,
    records: Vec<RoundRecord>,
    /// Finished jobs the state still held when the last step ended.
    finished_resident: usize,
    scratch: RoundScratch,
}

/// Per-round working buffers, reused across rounds so the hot scheduling loop
/// stops churning the allocator.  (The LP solver keeps its own reusable state
/// inside each policy's `oef_lp::SolverContext`.)
#[derive(Debug, Default)]
struct RoundScratch {
    /// Tenants scheduled this round (not departed, with unfinished jobs).
    active: Vec<usize>,
    /// Global tenant id -> position in `active`, [`NOT_ACTIVE`] for the rest.
    active_index: Vec<usize>,
    /// Reported speedup rows handed to the fair-share evaluator.
    reported_rows: Vec<oef_core::SpeedupVector>,
    /// Active-tenant allocation scattered to global tenant indices.
    global_ideal: Option<Allocation>,
    /// Per-global-tenant minimum device demand (0 for tenants not active).
    global_min_demand: Vec<usize>,
    /// Global tenant id -> index of its first job in `placed`.
    job_base: Vec<usize>,
    /// One mark per resident job, tenant by tenant in `jobs` order: the job
    /// received devices this round.  Positions rather than ids — job ids are
    /// only unique *per tenant* once tenants can migrate in from another shard
    /// with the ids they were minted there.
    placed: Vec<bool>,
    /// `(tenant, position in tenant.jobs, work done)` per placement of an active
    /// tenant, applied once the placer has let go of the tenants.
    progress: Vec<(usize, usize, f64)>,
    /// GPU types of the devices of the placement being priced.
    placed_types: Vec<GpuType>,
    /// Whole-device grants and the device placer's working memory.
    placer: PlacerScratch,
    /// Per-active-tenant actual throughput.
    actual: Vec<f64>,
    /// Per-active-tenant devices held.
    devices_held: Vec<usize>,
}

/// [`RoundScratch::active_index`] of a tenant that is not scheduled this round.
const NOT_ACTIVE: usize = usize::MAX;

impl SimulationEngine {
    /// Creates an engine over an existing cluster state.
    pub fn new(state: ClusterState, config: SimulationConfig) -> Self {
        let k = state.topology().num_gpu_types();
        let n = state.tenants().len();
        Self {
            state,
            config,
            rounding: RoundingPlacer::new(n, k),
            straggler_stats: StragglerStats::default(),
            now: 0.0,
            round: 0,
            records: Vec::new(),
            finished_resident: 0,
            scratch: RoundScratch::default(),
        }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of completed rounds.
    pub fn rounds_run(&self) -> usize {
        self.round
    }

    /// Read access to the cluster state.
    pub fn state(&self) -> &ClusterState {
        &self.state
    }

    /// Mutable access to the cluster state, used to inject dynamic events between
    /// rounds (a tenant starts cheating, departs, or submits a new job type).
    pub fn state_mut(&mut self) -> &mut ClusterState {
        &mut self.state
    }

    /// Runs a single scheduling round under `policy` **without** recording it
    /// in the engine's history.
    ///
    /// This is the reusable round step: a long-running caller (the online
    /// scheduling service) drives it for an unbounded number of rounds and
    /// keeps its own bounded metrics, so the engine must not accumulate
    /// per-round records forever.  Batch experiments should call
    /// [`SimulationEngine::run_round`], which records the round for the final
    /// [`SimulationReport`].
    ///
    /// # Errors
    ///
    /// Propagates allocation failures from the policy.
    pub fn step<P: AllocationPolicy + ?Sized>(&mut self, policy: &P) -> Result<RoundRecord> {
        self.scan_jobs();
        let active = std::mem::take(&mut self.scratch.active);

        let record = if active.is_empty() {
            Ok(RoundRecord {
                round: self.round,
                time_secs: self.now,
                solver_time_secs: 0.0,
                tenants: Vec::new(),
            })
        } else {
            self.schedule_active(policy, &active)
        };
        self.scratch.active = active;
        let record = record?;

        self.round += 1;
        self.now += self.config.round_secs;
        Ok(record)
    }

    /// Runs a single scheduling round under `policy` and records it.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures from the policy.
    pub fn run_round<P: AllocationPolicy + ?Sized>(&mut self, policy: &P) -> Result<RoundRecord> {
        let record = self.step(policy)?;
        self.records.push(record.clone());
        Ok(record)
    }

    /// Restores the simulated clock, used when resuming from a service
    /// snapshot: the rebuilt engine continues at the round and time the
    /// snapshot was taken.
    pub fn restore_clock(&mut self, now: f64, round: usize) {
        self.now = now;
        self.round = round;
    }

    /// The rounding placer's cumulative deviation state.  Part of a complete
    /// service snapshot: without it a restarted daemon would round the same
    /// fractional allocation to different whole devices than the original
    /// process.
    pub fn rounding(&self) -> &RoundingPlacer {
        &self.rounding
    }

    /// Replaces the rounding placer state when resuming from a snapshot.
    pub fn restore_rounding(&mut self, rounding: RoundingPlacer) {
        self.rounding = rounding;
    }

    /// Installs one tenant's cumulative rounding-deviation row (the receiving
    /// side of a cross-shard migration): the row the tenant accumulated on
    /// its source shard replaces whatever this placer holds at `tenant`.
    pub fn install_deviation_row(&mut self, tenant: usize, row: &[f64]) {
        self.rounding.set_row(tenant, row);
    }

    /// Removes a tenant from the cluster state *and* drops its rounding
    /// deviation row, keeping both sides aligned on the compacted indices.
    /// Online callers must use this instead of mutating the state directly.
    pub fn remove_tenant(&mut self, id: usize) -> Option<oef_cluster::Tenant> {
        let removed = self.state.remove_tenant(id)?;
        self.rounding.remove_tenant(id);
        Some(removed)
    }

    /// Runs `rounds` rounds and returns the accumulated report.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures from the policy.
    pub fn run<P: AllocationPolicy + ?Sized>(
        &mut self,
        policy: &P,
        rounds: usize,
    ) -> Result<SimulationReport> {
        for _ in 0..rounds {
            self.run_round(policy)?;
        }
        Ok(self.report(policy.name()))
    }

    /// Runs until every job has finished or `max_rounds` is reached.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures from the policy.
    pub fn run_until_complete<P: AllocationPolicy + ?Sized>(
        &mut self,
        policy: &P,
        max_rounds: usize,
    ) -> Result<SimulationReport> {
        for _ in 0..max_rounds {
            if self.state.all_jobs_finished() {
                break;
            }
            self.run_round(policy)?;
        }
        Ok(self.report(policy.name()))
    }

    /// Builds the report for the rounds simulated so far.
    pub fn report(&self, policy_name: &str) -> SimulationReport {
        let jcts: Vec<f64> = self
            .state
            .finished_jobs()
            .iter()
            .filter_map(|j| j.jct())
            .collect();
        let unfinished = self
            .state
            .tenants()
            .iter()
            .flat_map(|t| t.jobs.iter())
            .filter(|j| !j.is_finished())
            .count();
        SimulationReport {
            policy: policy_name.to_string(),
            round_secs: self.config.round_secs,
            rounds: self.records.clone(),
            straggler: self.straggler_stats,
            jct: JctStats::from_jcts(jcts),
            end_time_secs: self.now,
            unfinished_jobs: unfinished,
        }
    }

    /// Number of finished jobs the state still held when the last
    /// [`SimulationEngine::step`] ended (before any later command).  A caller
    /// that prunes finished jobs after every step can skip its pass over the
    /// jobs when this is zero.
    pub fn finished_jobs_resident(&self) -> usize {
        self.finished_resident
    }

    /// Straggler counters accumulated so far.
    pub fn straggler_stats(&self) -> StragglerStats {
        self.straggler_stats
    }

    /// The one pass over the resident jobs that precedes the solve: pending jobs
    /// whose arrival time has passed become runnable, and the scratch learns which
    /// tenants are active, each one's smallest runnable job (the placer's
    /// min-demand cutoff) and where each tenant's jobs start in the `placed` marks.
    fn scan_jobs(&mut self) {
        let now = self.now;
        let scratch = &mut self.scratch;
        scratch.active.clear();
        scratch.active_index.clear();
        scratch.global_min_demand.clear();
        scratch.job_base.clear();
        let mut jobs_seen = 0;
        let mut finished = 0;
        for (l, tenant) in self.state.tenants_mut().iter_mut().enumerate() {
            debug_assert_eq!(tenant.id, l, "tenant ids are their dense indices");
            scratch.job_base.push(jobs_seen);
            jobs_seen += tenant.jobs.len();
            let mut unfinished = false;
            let mut min_workers = None;
            for job in &mut tenant.jobs {
                job.maybe_arrive(now);
                match job.state {
                    JobState::Runnable => {
                        unfinished = true;
                        min_workers =
                            Some(min_workers.map_or(job.workers, |m: usize| m.min(job.workers)));
                    }
                    JobState::Pending => unfinished = true,
                    JobState::Finished => finished += 1,
                }
            }
            if !tenant.departed && unfinished {
                scratch.active_index.push(scratch.active.len());
                scratch.active.push(l);
                scratch.global_min_demand.push(min_workers.unwrap_or(0));
            } else {
                scratch.active_index.push(NOT_ACTIVE);
                scratch.global_min_demand.push(0);
            }
        }
        scratch.placed.clear();
        scratch.placed.resize(jobs_seen, false);
        self.finished_resident = finished;
    }

    fn schedule_active<P: AllocationPolicy + ?Sized>(
        &mut self,
        policy: &P,
        active: &[usize],
    ) -> Result<RoundRecord> {
        let spec = self.state.cluster_spec();

        // 1. Reported speedups: honest tenants go through the profiling agent, cheaters
        //    report their inflated vector directly.  The rows are last round's
        //    (reclaimed in step 5) and are overwritten in place.
        let mut reported_rows = std::mem::take(&mut self.scratch.reported_rows);
        reported_rows.truncate(active.len());
        for (i, &l) in active.iter().enumerate() {
            let tenant = self.state.tenant(l);
            if i == reported_rows.len() {
                reported_rows.push(tenant.true_speedup.clone());
            }
            if tenant.is_cheating() {
                reported_rows[i].clone_from(&tenant.reported_speedup);
            } else {
                self.config.profiler.profile_into(
                    &tenant.true_speedup,
                    l as u64,
                    &mut reported_rows[i],
                )?;
            }
        }
        let reported = SpeedupMatrix::new(reported_rows)?;

        // 2. Fair-share evaluation (timed for the Fig. 10(a) overhead measurement).
        let solve_start = Instant::now();
        let ideal = policy.allocate(&spec, &reported)?;
        let solver_time_secs = solve_start.elapsed().as_secs_f64();

        // 3. Estimated throughput: the promise of the fair-share evaluator, valued with
        //    the tenants' true speedups.
        let estimated: Vec<f64> = active
            .iter()
            .enumerate()
            .map(|(i, &l)| self.state.tenant(l).true_speedup.dot(ideal.user_row(i)))
            .collect();

        // 4. Placement and job progress.  Results land in the reusable
        //    scratch buffers instead of fresh per-round vectors.
        if self.config.physical_placement {
            self.place_and_advance(active, &ideal);
        } else {
            self.advance_fluid(active, &estimated);
            self.scratch.actual.clear();
            self.scratch.actual.extend_from_slice(&estimated);
            self.scratch.devices_held.clear();
            self.scratch.devices_held.resize(active.len(), 0);
        }
        let actual = &self.scratch.actual;
        let devices_held = &self.scratch.devices_held;

        // The allocation's rows move into the record.
        let tenants = active
            .iter()
            .zip(ideal.into_rows())
            .enumerate()
            .map(|(i, (&l, gpu_shares))| TenantRound {
                tenant: l,
                estimated_throughput: estimated[i],
                actual_throughput: actual[i],
                devices_held: devices_held[i],
                gpu_shares,
            })
            .collect();

        // 5. Reclaim the reported-speedup row buffer for the next round.
        self.scratch.reported_rows = reported.into_rows();

        Ok(RoundRecord {
            round: self.round,
            time_secs: self.now,
            solver_time_secs,
            tenants,
        })
    }

    /// Fluid-model progress: each tenant's runnable jobs share the tenant's promised
    /// rate equally; no placement effects.
    fn advance_fluid(&mut self, active: &[usize], rates: &[f64]) {
        let dt = self.config.round_secs;
        let now = self.now + dt;
        for (i, &l) in active.iter().enumerate() {
            let tenant = self.state.tenant_mut(l);
            let job_ids: Vec<_> = tenant.runnable_jobs().iter().map(|j| j.id).collect();
            if job_ids.is_empty() {
                continue;
            }
            let per_job = rates[i] * dt / job_ids.len() as f64;
            for id in job_ids {
                if let Some(job) = tenant.job_mut(id) {
                    job.advance(per_job, now);
                    self.finished_resident += usize::from(job.is_finished());
                }
            }
        }
    }

    /// Physical placement: round shares to devices, place jobs on hosts, apply
    /// contention and straggler penalties, and advance jobs by what they actually ran.
    /// Writes per-active-tenant results into `self.scratch.actual` and
    /// `self.scratch.devices_held`.
    fn place_and_advance(&mut self, active: &[usize], ideal: &Allocation) {
        let dt = self.config.round_secs;
        let now = self.now + dt;
        let Self {
            state,
            config,
            rounding,
            straggler_stats,
            finished_resident,
            scratch,
            ..
        } = self;
        let topology = state.topology();
        let capacities: Vec<usize> = topology.capacities();

        // The rounding placer is indexed by *global* tenant id so deviations survive
        // tenants joining and leaving; scatter the active-tenant allocation into a
        // global-width matrix first.  The global-width buffers persist across rounds
        // and are only rebuilt when the tenant or GPU-type count changes.
        let num_tenants = state.tenants().len();
        let k = topology.num_gpu_types();
        let global_ideal = match &mut scratch.global_ideal {
            Some(existing)
                if existing.num_users() == num_tenants && existing.num_gpu_types() == k =>
            {
                for l in 0..num_tenants {
                    existing.user_row_mut(l).fill(0.0);
                }
                existing
            }
            slot => slot.insert(Allocation::zeros(num_tenants, k)),
        };
        for (i, &l) in active.iter().enumerate() {
            global_ideal
                .user_row_mut(l)
                .clone_from_slice(ideal.user_row(i));
        }
        rounding.round_shares_into(
            global_ideal,
            &capacities,
            &scratch.global_min_demand,
            &mut scratch.placer,
        );

        // Device placement for the tenants that received devices: price each placed
        // job and accumulate actual throughput per active tenant.
        scratch.actual.clear();
        scratch.actual.resize(active.len(), 0.0);
        scratch.progress.clear();
        let (actual, progress, types, active_index) = (
            &mut scratch.actual,
            &mut scratch.progress,
            &mut scratch.placed_types,
            &scratch.active_index,
        );
        config.placer.place_each(
            topology,
            state.tenants(),
            &mut scratch.placer,
            |tenant, position, devices| {
                let i = active_index[tenant.id];
                if i == NOT_ACTIVE {
                    return;
                }
                types.clear();
                types.extend(devices.iter().map(|d| d.gpu_type));
                let (rate, affected) = config.straggler.effective_rate(&tenant.true_speedup, types);
                let contention_factor = config
                    .contention
                    .factor(distinct_hosts(devices), devices.len());
                let effective_rate = rate * contention_factor;
                actual[i] += effective_rate;
                if StragglerModel::is_cross_type(types) {
                    straggler_stats.cross_type_placements += 1;
                    straggler_stats.affected_workers += affected as u64;
                }
                progress.push((tenant.id, position, effective_rate * dt));
            },
        );

        // Advance the placed jobs.
        for &(tenant, position, work) in &scratch.progress {
            let job = &mut state.tenant_mut(tenant).jobs[position];
            job.advance(work, now);
            *finished_resident += usize::from(job.is_finished());
            scratch.placed[scratch.job_base[tenant] + position] = true;
        }

        // Starvation accounting for runnable jobs that received nothing.
        for (tenant, &base) in state.tenants_mut().iter_mut().zip(&scratch.job_base) {
            for (job, &placed) in tenant.jobs.iter_mut().zip(&scratch.placed[base..]) {
                if matches!(job.state, JobState::Runnable) && !placed {
                    job.starvation_time += dt;
                }
            }
        }

        scratch.devices_held.clear();
        scratch.devices_held.extend(
            active
                .iter()
                .map(|&l| scratch.placer.counts(l).iter().sum::<usize>()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oef_cluster::{ClusterTopology, Job, JobId, Tenant};
    use oef_core::{NonCooperativeOef, SpeedupVector};
    use oef_schedulers::MaxMin;

    fn sv(values: Vec<f64>) -> SpeedupVector {
        SpeedupVector::new(values).unwrap()
    }

    fn small_state(num_tenants: usize, jobs_per_tenant: usize, work: f64) -> ClusterState {
        let mut state = ClusterState::new(ClusterTopology::paper_cluster());
        let profiles = [
            vec![1.0, 1.18, 1.39],
            vec![1.0, 1.55, 2.15],
            vec![1.0, 1.25, 1.55],
            vec![1.0, 1.6, 2.3],
        ];
        for t in 0..num_tenants {
            let speedup = sv(profiles[t % profiles.len()].clone());
            let id = state.add_tenant(Tenant::new(t, format!("tenant-{t}"), speedup.clone()));
            for j in 0..jobs_per_tenant {
                state.submit_job(
                    id,
                    Job::new(
                        JobId(0),
                        id,
                        "model",
                        1 + (j % 2),
                        speedup.clone(),
                        work,
                        0.0,
                    ),
                );
            }
        }
        state
    }

    #[test]
    fn one_round_produces_records_for_all_tenants() {
        let state = small_state(4, 2, 1e9);
        let mut engine = SimulationEngine::new(state, SimulationConfig::default());
        let record = engine.run_round(&NonCooperativeOef::default()).unwrap();
        assert_eq!(record.tenants.len(), 4);
        assert!(record.total_estimated() > 0.0);
        assert!(record.solver_time_secs >= 0.0);
        assert_eq!(engine.rounds_run(), 1);
        assert!((engine.now() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn noncoop_oef_gives_equal_estimated_throughput() {
        let state = small_state(4, 2, 1e9);
        let mut engine = SimulationEngine::new(state, SimulationConfig::default());
        let report = engine.run(&NonCooperativeOef::default(), 5).unwrap();
        let last = report.rounds.last().unwrap();
        let eff: Vec<f64> = last
            .tenants
            .iter()
            .map(|t| t.estimated_throughput)
            .collect();
        for e in &eff {
            assert!(
                (e - eff[0]).abs() < 1e-6,
                "estimated throughput not equalised: {eff:?}"
            );
        }
    }

    #[test]
    fn actual_throughput_is_close_to_estimated_but_not_higher_on_average() {
        let state = small_state(4, 3, 1e9);
        let mut engine = SimulationEngine::new(state, SimulationConfig::default());
        let report = engine.run(&NonCooperativeOef::default(), 12).unwrap();
        let est = report.avg_total_estimated();
        let act = report.avg_total_actual();
        assert!(act > 0.0);
        // Rounding moves throughput between rounds but cannot create devices; over a
        // window the actual total stays in the same ballpark as the estimate.
        assert!(
            act <= est * 1.35 + 1e-6,
            "actual {act} unexpectedly above estimate {est}"
        );
        assert!(
            act >= est * 0.5,
            "actual {act} collapsed versus estimate {est}"
        );
    }

    #[test]
    fn jobs_finish_and_jct_is_recorded() {
        // Tiny jobs (600 slow-GPU-seconds) finish within a few rounds on a 24-GPU
        // cluster shared by 2 tenants.
        let state = small_state(2, 2, 600.0);
        let mut engine = SimulationEngine::new(state, SimulationConfig::default());
        let report = engine.run_until_complete(&MaxMin::default(), 100).unwrap();
        assert_eq!(report.unfinished_jobs, 0, "all jobs should finish");
        assert_eq!(report.jct.finished_jobs, 4);
        assert!(report.jct.mean_secs > 0.0);
        assert!(report.end_time_secs <= 100.0 * 300.0);
    }

    #[test]
    fn fluid_mode_matches_estimated_exactly() {
        let state = small_state(3, 2, 1e9);
        let config = SimulationConfig {
            physical_placement: false,
            ..Default::default()
        };
        let mut engine = SimulationEngine::new(state, config);
        let report = engine.run(&MaxMin::default(), 3).unwrap();
        for round in &report.rounds {
            for t in &round.tenants {
                assert!((t.estimated_throughput - t.actual_throughput).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn departed_tenants_are_excluded() {
        let state = small_state(3, 1, 1e9);
        let mut engine = SimulationEngine::new(state, SimulationConfig::default());
        engine.run_round(&MaxMin::default()).unwrap();
        engine.state_mut().tenant_mut(2).departed = true;
        let record = engine.run_round(&MaxMin::default()).unwrap();
        assert_eq!(record.tenants.len(), 2);
        assert!(record.tenant(2).is_none());
    }

    #[test]
    fn job_scan_agrees_with_the_state_queries() {
        // Tenant 0 runs jobs of 2 and 1 workers, 1 only has a job that arrives in
        // round 2, 2 has finished everything, 3 has left with work outstanding.
        let mut state = small_state(4, 2, 1e9);
        state.tenant_mut(1).jobs.truncate(1);
        let late = &mut state.tenant_mut(1).jobs[0];
        (late.arrival_time, late.state) = (400.0, JobState::Pending);
        for job in &mut state.tenant_mut(2).jobs {
            job.advance(1e12, 0.0);
        }
        state.tenant_mut(3).departed = true;
        let mut engine = SimulationEngine::new(state, SimulationConfig::default());

        for expected_min_demand in [vec![1, 0], vec![1, 0], vec![1, 1]] {
            engine.scan_jobs();
            let active = engine.state.active_tenants();
            assert_eq!(active, vec![0, 1]);
            assert_eq!(engine.scratch.active, active);
            assert_eq!(engine.state.min_demands(&active), expected_min_demand);
            for (i, &l) in active.iter().enumerate() {
                assert_eq!(engine.scratch.active_index[l], i);
                assert_eq!(engine.scratch.global_min_demand[l], expected_min_demand[i]);
            }
            assert_eq!(engine.scratch.active_index[2..], [NOT_ACTIVE; 2]);
            assert_eq!(engine.scratch.global_min_demand[2..], [0; 2]);
            assert_eq!(engine.scratch.job_base, vec![0, 2, 3, 5]);
            assert_eq!(engine.finished_jobs_resident(), 2);
            engine.now += 300.0;
        }
    }

    #[test]
    fn cheating_tenant_uses_reported_profile() {
        let state = small_state(2, 1, 1e9);
        let mut engine = SimulationEngine::new(state, SimulationConfig::default());
        engine.state_mut().tenant_mut(0).cheat_with_factor(2.0);
        // The run should proceed without error and the cheater should not crash the
        // scheduler; property-level consequences are covered by the fairness tests.
        let record = engine.run_round(&NonCooperativeOef::default()).unwrap();
        assert_eq!(record.tenants.len(), 2);
    }
}
