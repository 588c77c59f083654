//! The scheduler service core: a single-threaded state machine over
//! [`Command`]s.
//!
//! The core owns the cluster state (through a [`SimulationEngine`], whose
//! round step it reuses), a boxed [`AllocationPolicy`] whose solver context
//! warm-starts every `Tick`, the stable-handle tenant index, admission-control
//! quotas and the metrics registry.  It has no threads and no I/O: the TCP
//! server feeds it commands one at a time, and tests can drive it directly.

use crate::command::{
    Command, ErrorCode, HostStatusEntry, MetricsReport, Response, RoundSummary, StatusReport,
    TenantRoundSummary, PROTOCOL_VERSION,
};
use crate::metrics::ServiceMetrics;
use crate::server::CommandHandler;
use crate::snapshot::{ServiceSnapshot, ServiceSnapshotRef, SNAPSHOT_VERSION};
use oef_attrib::AttributionRegistry;
use oef_cluster::{ClusterState, ClusterTopology, GpuType, HostHandle, Job, JobId, Tenant};
use oef_core::{BoxedPolicy, SpeedupVector, TenantIndexMap};
use oef_obs::{AgeGauge, Counter, Gauge, GaugeFamily, Registry};
use oef_schedulers::{GandivaFair, Gavel, MaxEfficiency, MaxMin};
use oef_sim::{RoundRecord, SimulationConfig, SimulationEngine};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Instant;

/// Admission-control quotas enforced before state is mutated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceLimits {
    /// Maximum simultaneously registered tenants.
    pub max_tenants: usize,
    /// Maximum unfinished jobs a tenant may hold.
    pub max_jobs_per_tenant: usize,
    /// Maximum hosts in the topology.
    pub max_hosts: usize,
    /// Capacity of the daemon's bounded command queue.
    pub queue_capacity: usize,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        Self {
            max_tenants: 64,
            max_jobs_per_tenant: 256,
            max_hosts: 64,
            queue_capacity: 128,
        }
    }
}

/// Static configuration of a service instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Allocation policy name (see [`policy_from_name`]).
    pub policy: String,
    /// Seconds of simulated time one `Tick` advances.
    pub round_secs: f64,
    /// Whether ticks run physical placement (rounding, packing, contention)
    /// or the fluid model.
    pub physical_placement: bool,
    /// Admission-control quotas.
    pub limits: ServiceLimits,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            policy: "oef-noncooperative".to_string(),
            round_secs: 300.0,
            physical_placement: true,
            limits: ServiceLimits::default(),
        }
    }
}

/// Errors constructing or restoring a service (wire-level failures are
/// [`Response::Error`] instead).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The configured policy name is not registered.
    UnknownPolicy(String),
    /// A snapshot could not be parsed or failed validation.
    BadSnapshot(String),
    /// The service (or federation) configuration is invalid — no snapshot
    /// involved.
    InvalidConfig(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownPolicy(name) => write!(f, "unknown policy `{name}`"),
            ServiceError::BadSnapshot(reason) => write!(f, "bad snapshot: {reason}"),
            ServiceError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Builds a boxed policy from its wire name.
///
/// Names match each policy's `AllocationPolicy::name()`: the OEF mechanisms
/// (`oef-noncooperative`, `oef-cooperative`) and the baselines (`max-min`,
/// `gandiva-fair`, `gavel`, `max-efficiency`).
pub fn policy_from_name(name: &str) -> Option<BoxedPolicy> {
    match name {
        "oef-noncooperative" => Some(Box::new(oef_core::NonCooperativeOef::default())),
        "oef-cooperative" => Some(Box::new(oef_core::CooperativeOef::default())),
        "max-min" => Some(Box::new(MaxMin::default())),
        "gandiva-fair" => Some(Box::new(GandivaFair::default())),
        "gavel" => Some(Box::new(Gavel::default())),
        "max-efficiency" => Some(Box::new(MaxEfficiency::default())),
        _ => None,
    }
}

/// The LP program family a policy solves — the `program` label on the solve
/// series, so dashboards can compare the envy-constrained cooperative program
/// against the equal-efficiency non-cooperative one across shards that run
/// different policies.  Baselines that solve no OEF program report `none`.
pub fn program_of_policy(name: &str) -> &'static str {
    match name {
        "oef-cooperative" => "cooperative",
        "oef-noncooperative" => "non-cooperative",
        _ => "none",
    }
}

/// A tenant's complete portable state, as pulled out of one scheduler shard
/// by [`SchedulerService::extract_tenant`] and pushed into another by
/// [`SchedulerService::install_tenant`].
///
/// "Complete" is what makes cross-shard migration allocation-preserving: the
/// tenant rides with its speedup profiles (true and reported), its unfinished
/// jobs *with their ids and progress*, its weight/departure flags, and the
/// rounding placer's cumulative deviation row — the long-run fairness debt
/// that decides which whole devices the tenant gets next round.  Quota usage
/// is implicit (the job list) and re-checked by the installing shard.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantExtract {
    /// The tenant with all of its jobs (ids preserved — clients hold them).
    pub tenant: oef_cluster::Tenant,
    /// Cumulative rounding deviation per GPU type, from the source shard's
    /// placer.
    pub deviation: Vec<f64>,
}

/// Wire-mappable command failure: the error code plus a human-readable
/// message, exactly what [`Response::Error`] carries.
pub type CommandError = (ErrorCode, String);

/// Tolerance on the sharing-incentive ratio, matching the fairness checkers
/// in `oef-core`.
const FAIRNESS_TOLERANCE: f64 = 1e-6;

/// Per-shard exposition cells (`{shard="N"}`): solver-cache counters mirrored
/// from the policy, population gauges, and the fairness-SLO series sampled
/// from each solved round.
struct ShardObs {
    warm_solves: Counter,
    cold_solves: Counter,
    dense_fallbacks: Counter,
    basis_repairs: Counter,
    churn_repairs: Counter,
    refactorizations: Counter,
    drift_refactorizations: Counter,
    eta_pivots: Counter,
    tenants: Gauge,
    hosts: Gauge,
    max_envy: Gauge,
    sharing_incentive: Gauge,
    fairness_sample_age: AgeGauge,
    allocation: GaugeFamily,
    entitlement: GaugeFamily,
    /// Last `(allocation, entitlement)` published per tenant handle, so each
    /// round only touches the series that actually moved (epsilon-gated)
    /// instead of rewriting both whole families — O(changed), not O(n), per
    /// tick at steady state.
    fairness_last: HashMap<u64, (f64, f64)>,
}

/// The single-threaded scheduling service core.
pub struct SchedulerService {
    engine: SimulationEngine,
    policy: BoxedPolicy,
    config: ServiceConfig,
    tenants: TenantIndexMap,
    metrics: ServiceMetrics,
    /// Exposition cells, present once attached to a registry (`None` keeps
    /// headless instances — tests, benches, embedded cores — free of any
    /// sampling work).  Like `metrics` they describe this process, not the
    /// cluster state, and survive `Restore`.
    shard_obs: Option<ShardObs>,
    /// Per-tenant solve-cost accumulator, present once attached.  A shared
    /// handle (the federation hands every shard a clone of one registry);
    /// like the obs cells it describes this process and survives `Restore`.
    attrib: Option<AttributionRegistry>,
    /// Shard index this core records attribution under: handles fed to the
    /// shared registry are wire-tagged (`sharded::encode`) so per-shard
    /// locals can never collide across a federation.  0 (the identity
    /// encoding) until attached.
    attrib_shard: usize,
    /// Process-lifetime clock for `Status.uptime_secs`; survives `Restore`
    /// (state age and process age are different things).
    started: Instant,
    shutting_down: bool,
}

impl std::fmt::Debug for SchedulerService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerService")
            .field("policy", &self.config.policy)
            .field("tenants", &self.tenants.len())
            .field("round", &self.engine.rounds_run())
            .field("shutting_down", &self.shutting_down)
            .finish_non_exhaustive()
    }
}

type CommandResult = Result<Response, (ErrorCode, String)>;

impl SchedulerService {
    /// Creates a service over an empty cluster with the given topology.
    ///
    /// # Errors
    ///
    /// Fails when the configured policy name is unknown.
    pub fn new(topology: ClusterTopology, config: ServiceConfig) -> Result<Self, ServiceError> {
        let policy = policy_from_name(&config.policy)
            .ok_or_else(|| ServiceError::UnknownPolicy(config.policy.clone()))?;
        let engine =
            SimulationEngine::new(ClusterState::new(topology), Self::engine_config(&config));
        Ok(Self {
            engine,
            policy,
            config,
            tenants: TenantIndexMap::new(),
            metrics: ServiceMetrics::new(),
            shard_obs: None,
            attrib: None,
            attrib_shard: 0,
            started: Instant::now(),
            shutting_down: false,
        })
    }

    /// Rebuilds a service from a snapshot JSON string (see
    /// [`Command::Snapshot`]).
    ///
    /// The solver context restarts cold — the first tick after a restore pays
    /// one cold solve, after which warm starting resumes.  Allocations are
    /// unaffected: cold and warm solves agree within numerical tolerance.
    ///
    /// # Errors
    ///
    /// Fails on malformed snapshots, version mismatches (a v1 snapshot is
    /// refused with a structured error before its incompatible layout is even
    /// parsed), unknown policies, or identity maps that disagree with the
    /// cluster state.
    pub fn from_snapshot_json(snapshot: &str) -> Result<Self, ServiceError> {
        let value: serde::Value =
            serde_json::from_str(snapshot).map_err(|e| ServiceError::BadSnapshot(e.to_string()))?;
        Self::from_snapshot_value(&value)
    }

    /// Rebuilds a service from an already parsed snapshot document — what
    /// [`Self::from_snapshot_json`] does after parsing, and how a federated
    /// envelope restores its shard entries without rendering each back to
    /// text first.
    ///
    /// # Errors
    ///
    /// See [`Self::from_snapshot_json`].
    pub fn from_snapshot_value(value: &serde::Value) -> Result<Self, ServiceError> {
        // Gate on the version *before* reading the full layout: older
        // versions have differently shaped fields, and "missing field" parse
        // errors would mask the real problem.
        match value.get("version").and_then(serde::Value::as_u64) {
            Some(v) if v == u64::from(SNAPSHOT_VERSION) => {}
            Some(v) => {
                return Err(ServiceError::BadSnapshot(format!(
                    "snapshot version {v} is not supported (daemon supports {SNAPSHOT_VERSION}; \
                     v1 snapshots predate stable host handles and cannot be migrated — take a \
                     fresh snapshot with a v{SNAPSHOT_VERSION} daemon)"
                )));
            }
            None => {
                return Err(ServiceError::BadSnapshot(
                    "snapshot has no numeric `version` field".to_string(),
                ));
            }
        }
        let snapshot = ServiceSnapshot::deserialize(value)
            .map_err(|e| ServiceError::BadSnapshot(e.to_string()))?;
        Self::from_snapshot(snapshot)
    }

    fn from_snapshot(snapshot: ServiceSnapshot) -> Result<Self, ServiceError> {
        if snapshot.tenant_handles.len() != snapshot.state.tenants().len() {
            return Err(ServiceError::BadSnapshot(format!(
                "tenant index has {} handles but state has {} tenants",
                snapshot.tenant_handles.len(),
                snapshot.state.tenants().len()
            )));
        }
        Self::validate_state(&snapshot.state).map_err(ServiceError::BadSnapshot)?;
        let policy = policy_from_name(&snapshot.config.policy)
            .ok_or_else(|| ServiceError::UnknownPolicy(snapshot.config.policy.clone()))?;
        let mut engine =
            SimulationEngine::new(snapshot.state, Self::engine_config(&snapshot.config));
        engine.restore_clock(snapshot.now_secs, snapshot.round);
        engine.restore_rounding(snapshot.rounding);
        Ok(Self {
            engine,
            policy,
            config: snapshot.config,
            tenants: snapshot.tenant_handles,
            metrics: ServiceMetrics::new(),
            shard_obs: None,
            attrib: None,
            attrib_shard: 0,
            started: Instant::now(),
            shutting_down: false,
        })
    }

    /// Checks the internal invariants of a deserialized cluster state.
    /// `Restore` is an ordinary wire command, so a malformed snapshot must be
    /// refused here rather than panicking the scheduler on the next tick.
    ///
    /// The host handle map's *structural* integrity (no dead or stale
    /// handles, consistent free list) is already enforced by its own
    /// deserializer; this checks the cross-field invariants on top.
    fn validate_state(state: &ClusterState) -> Result<(), String> {
        let k = state.topology().num_gpu_types();
        for (i, host) in state.topology().hosts().iter().enumerate() {
            if state.topology().host_index(host.handle) != Some(i) {
                return Err(format!(
                    "host at index {i} carries handle {} which does not resolve back to it",
                    host.handle.0
                ));
            }
            if host.gpu_type.0 >= k {
                return Err(format!(
                    "host {} has GPU type {} but the topology declares {k} types",
                    host.handle.0, host.gpu_type.0
                ));
            }
            if host.num_gpus == 0 {
                return Err(format!("host {} has no devices", host.handle.0));
            }
        }
        for t in 0..k {
            if state.topology().capacity_of(oef_cluster::GpuType(t)) == 0 {
                return Err(format!(
                    "GPU type {t} has zero capacity (the allocation LP needs every declared \
                     type backed by at least one device)"
                ));
            }
        }
        for (i, tenant) in state.tenants().iter().enumerate() {
            if tenant.id != i {
                return Err(format!("tenant at index {i} carries id {}", tenant.id));
            }
            if tenant.true_speedup.num_gpu_types() != k
                || tenant.reported_speedup.num_gpu_types() != k
            {
                return Err(format!(
                    "tenant {i} speedup profile does not cover the {k} GPU types"
                ));
            }
            for job in &tenant.jobs {
                if job.tenant != i {
                    return Err(format!(
                        "job {:?} of tenant {i} carries tenant index {}",
                        job.id, job.tenant
                    ));
                }
                if job.speedup.num_gpu_types() != k {
                    return Err(format!(
                        "job {:?} speedup profile does not cover the {k} GPU types",
                        job.id
                    ));
                }
            }
        }
        Ok(())
    }

    fn engine_config(config: &ServiceConfig) -> SimulationConfig {
        SimulationConfig {
            round_secs: config.round_secs,
            physical_placement: config.physical_placement,
            ..SimulationConfig::default()
        }
    }

    /// The service's static configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Whether a `Shutdown` command has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Read access to the cluster state (tests, reporting).
    pub fn state(&self) -> &ClusterState {
        self.engine.state()
    }

    /// Stable handles of the registered tenants, in dense-index order.
    pub fn tenant_handles(&self) -> &[u64] {
        self.tenants.handles()
    }

    /// Scheduling rounds completed over the service's lifetime.
    pub fn rounds_run(&self) -> usize {
        self.engine.rounds_run()
    }

    /// Hooks this core into a shared per-tenant solve-cost registry.  In a
    /// federation every shard receives a clone of the same registry, so the
    /// exposed totals are the cross-shard aggregate.
    pub fn attach_attribution(&mut self, attrib: AttributionRegistry, shard: usize) {
        self.attrib = Some(attrib);
        self.attrib_shard = shard;
    }

    /// A shard-local handle in its wire form (shard 0 is the identity
    /// encoding; the null handle stays null).
    fn wire_handle(&self, local: u64) -> u64 {
        if local == 0 {
            0
        } else {
            oef_core::sharded::encode(self.attrib_shard, local)
        }
    }

    /// Registers this core's per-shard series under `{shard="N"}` and seeds
    /// the population gauges.  Idempotent: re-attaching (e.g. after a
    /// `Restore` rebuilt a shard) replaces the registry's handles with the
    /// new cells instead of duplicating series.
    pub fn attach_shard_observability(&mut self, registry: &Registry, shard: usize) {
        self.metrics.register_shard(
            registry,
            shard,
            &self.config.policy,
            program_of_policy(&self.config.policy),
        );
        let shard = shard.to_string();
        let labels = [("shard", shard.as_str())];
        let obs = ShardObs {
            warm_solves: registry.counter(
                "oef_warm_solves_total",
                "LP solves served from a cached basis.",
                &labels,
            ),
            cold_solves: registry.counter(
                "oef_cold_solves_total",
                "LP solves run from scratch.",
                &labels,
            ),
            dense_fallbacks: registry.counter(
                "oef_dense_fallbacks_total",
                "Cold solves that additionally fell back to the dense reference solver.",
                &labels,
            ),
            basis_repairs: registry.counter(
                "oef_basis_repairs_total",
                "Warm solves that needed dual-simplex repair pivots before phase 2.",
                &labels,
            ),
            churn_repairs: registry.counter(
                "oef_churn_repairs_total",
                "Warm solves served by remapping a cached basis across tenant churn.",
                &labels,
            ),
            refactorizations: registry.counter(
                "oef_refactorizations_total",
                "Sparse LU refactorizations (eta-file resets) across all solves.",
                &labels,
            ),
            drift_refactorizations: registry.counter(
                "oef_drift_refactorizations_total",
                "Refactorizations forced by numerical drift rather than eta growth.",
                &labels,
            ),
            eta_pivots: registry.counter(
                "oef_eta_pivots_total",
                "Simplex pivots applied as eta-file updates to the sparse LU factors.",
                &labels,
            ),
            tenants: registry.gauge("oef_tenants", "Registered tenants.", &labels),
            hosts: registry.gauge("oef_hosts", "Hosts in the topology.", &labels),
            max_envy: registry.gauge(
                "oef_max_envy",
                "Largest pairwise envy in the last solved round's allocation (0 = envy-free).",
                &labels,
            ),
            sharing_incentive: registry.gauge(
                "oef_sharing_incentive",
                "1 when every tenant in the last solved round met its weighted entitlement \
                 (within tolerance), else 0.",
                &labels,
            ),
            fairness_sample_age: registry.age_gauge(
                "oef_fairness_sample_age_seconds",
                "Seconds since the fairness-SLO series were last sampled from a solved \
                 round; climbs while the tick worker is stalled.",
                &labels,
            ),
            allocation: registry.gauge_family(
                "oef_tenant_allocation",
                "Throughput a tenant derives from its own allocation, under its reported \
                 speedups.",
                &labels,
            ),
            entitlement: registry.gauge_family(
                "oef_tenant_entitlement",
                "Throughput the tenant's weight-proportional share of the cluster would yield \
                 under its reported speedups.",
                &labels,
            ),
            fairness_last: HashMap::new(),
        };
        obs.tenants.set(self.tenants.len() as f64);
        obs.hosts
            .set(self.engine.state().topology().hosts().len() as f64);
        self.shard_obs = Some(obs);
    }

    /// Refreshes the cheap exposition gauges after a command: population
    /// and the solver-cache counter mirrors.  A handful of atomic stores —
    /// and nothing at all while unattached.
    fn refresh_obs(&self) {
        if let Some(obs) = &self.shard_obs {
            obs.tenants.set(self.tenants.len() as f64);
            obs.hosts
                .set(self.engine.state().topology().hosts().len() as f64);
            if let Some(stats) = self.policy.solver_stats() {
                obs.warm_solves.set(stats.warm_solves);
                obs.cold_solves.set(stats.cold_solves);
                obs.dense_fallbacks.set(stats.dense_fallbacks);
                obs.basis_repairs.set(stats.basis_repairs);
                obs.churn_repairs.set(stats.churn_repairs);
                obs.refactorizations.set(stats.refactorizations);
                obs.drift_refactorizations.set(stats.drift_refactorizations);
                obs.eta_pivots.set(stats.eta_pivots);
            }
        }
    }

    /// Samples the fairness-SLO series from one solved round: what each
    /// tenant's allocation is worth to it versus its weight-proportional
    /// entitlement, the largest pairwise envy (both under *reported*
    /// speedups, matching `oef-core`'s checkers), and whether every tenant
    /// met its entitlement (the sharing-incentive indicator).
    ///
    /// O(n²·k) over the fluid allocation rows the round already produced —
    /// negligible next to the LP solve that produced them.  Gauge-family
    /// writes, by contrast, are incremental: a tenant's series is only
    /// touched when its value moved beyond a relative epsilon, and departed
    /// tenants are evicted from the families the round they disappear — no
    /// full O(n) family rewrite per tick.
    fn sample_fairness_obs(&mut self, record: &RoundRecord) {
        let Some(obs) = &mut self.shard_obs else {
            return;
        };
        let state = self.engine.state();
        let topology = state.topology();
        let capacities: Vec<f64> = (0..topology.num_gpu_types())
            .map(|t| topology.capacity_of(GpuType(t)) as f64)
            .collect();
        let total_weight: f64 = record
            .tenants
            .iter()
            .map(|t| f64::from(state.tenants()[t.tenant].weight))
            .sum();
        let mut present: Vec<u64> = Vec::with_capacity(record.tenants.len());
        let mut max_envy: f64 = 0.0;
        let mut incentive_met = true;
        for t in &record.tenants {
            let tenant = &state.tenants()[t.tenant];
            let speedup = &tenant.reported_speedup;
            let achieved = speedup.dot(&t.gpu_shares);
            let entitled =
                speedup.dot(&capacities) * f64::from(tenant.weight) / total_weight.max(1.0);
            let handle = self.tenants.handle_at(t.tenant).unwrap_or(0);
            present.push(handle);
            let moved = |old: f64, new: f64| (new - old).abs() > 1e-9 * old.abs().max(1.0);
            let publish = match obs.fairness_last.get(&handle) {
                Some(&(a, e)) => moved(a, achieved) || moved(e, entitled),
                None => true,
            };
            if publish {
                let labels = || vec![("tenant".to_string(), handle.to_string())];
                obs.allocation.update(labels(), achieved);
                obs.entitlement.update(labels(), entitled);
                obs.fairness_last.insert(handle, (achieved, entitled));
            }
            if entitled > 0.0 && achieved / entitled < 1.0 - FAIRNESS_TOLERANCE {
                incentive_met = false;
            }
            for other in &record.tenants {
                max_envy = max_envy.max(speedup.dot(&other.gpu_shares) - achieved);
            }
        }
        // Evict series of tenants that left: stale per-tenant gauges would
        // otherwise report a departed tenant's last allocation forever.
        let (families, cache) = ((&obs.allocation, &obs.entitlement), &mut obs.fairness_last);
        cache.retain(|handle, _| {
            if present.contains(handle) {
                return true;
            }
            let labels = vec![("tenant".to_string(), handle.to_string())];
            families.0.remove(&labels);
            families.1.remove(&labels);
            false
        });
        obs.max_envy.set(max_envy);
        obs.sharing_incentive
            .set(f64::from(u8::from(incentive_met)));
        obs.fairness_sample_age.touch();
    }

    /// Feeds the round's solver attribution into the shared cost registry.
    /// Slot `l` of the report is row `l` of the speedup matrix the policy
    /// solved, which is exactly `record.tenants[l]` (the engine builds both
    /// from the same active-tenant scan, in order) — so the slot-to-handle
    /// join is a positional map, no lookup table to drift.
    fn record_attribution(&mut self, record: &RoundRecord) {
        let Some(attrib) = &self.attrib else {
            return;
        };
        let Some(report) = self.policy.solver_attribution() else {
            return;
        };
        if report.total().is_zero() {
            return;
        }
        let handles: Vec<u64> = record
            .tenants
            .iter()
            .map(|t| self.wire_handle(self.tenants.handle_at(t.tenant).unwrap_or(0)))
            .collect();
        attrib.record_solve(&report, &handles);
    }

    /// Executes one command against the state machine.
    ///
    /// `queue_depth` is the number of commands still waiting behind this one
    /// (0 when driving the core directly); it is only observed by `Metrics`.
    /// Every outcome is a [`Response`] — errors are data, not panics.
    pub fn apply(&mut self, command: Command, queue_depth: usize) -> Response {
        let result = self.dispatch(command, queue_depth);
        self.metrics.record_command(result.is_ok());
        self.refresh_obs();
        match result {
            Ok(response) => response,
            Err((code, message)) => Response::Error { code, message },
        }
    }

    fn dispatch(&mut self, command: Command, queue_depth: usize) -> CommandResult {
        if self.shutting_down && !matches!(command, Command::Status | Command::Metrics) {
            return Err((
                ErrorCode::ShuttingDown,
                "daemon is shutting down".to_string(),
            ));
        }
        match command {
            Command::TenantJoin {
                name,
                weight,
                speedup,
            } => self.tenant_join(name, weight, speedup),
            Command::TenantLeave { tenant } => self.tenant_leave(tenant),
            Command::UpdateSpeedups { tenant, speedup } => self.update_speedups(tenant, speedup),
            Command::SubmitJob {
                tenant,
                model,
                workers,
                total_work,
            } => self.submit_job(tenant, model, workers, total_work),
            Command::JobFinished { tenant, job } => self.job_finished(tenant, job),
            Command::AddHost { gpu_type, num_gpus } => self.add_host(gpu_type, num_gpus),
            Command::RemoveHost { handle } => self.remove_host(handle),
            Command::MigrateTenant { .. } | Command::Rebalance => Err((
                ErrorCode::InvalidArgument,
                "a shard core does not migrate tenants; the coordinator in front of it \
                 executes MigrateTenant and Rebalance"
                    .to_string(),
            )),
            Command::Tick => self.tick(),
            Command::Metrics => Ok(self.metrics_report(queue_depth)),
            Command::Snapshot => self.snapshot(),
            Command::Restore { snapshot } => self.restore(&snapshot),
            Command::Status => Ok(self.status()),
            Command::Shutdown => {
                self.shutting_down = true;
                Ok(Response::ShuttingDown)
            }
        }
    }

    fn parse_speedup(&self, speedup: Vec<f64>) -> Result<SpeedupVector, (ErrorCode, String)> {
        let k = self.engine.state().topology().num_gpu_types();
        if speedup.len() != k {
            return Err((
                ErrorCode::InvalidArgument,
                format!(
                    "speedup has {} entries, topology has {k} GPU types",
                    speedup.len()
                ),
            ));
        }
        SpeedupVector::new(speedup).map_err(|e| (ErrorCode::InvalidArgument, e.to_string()))
    }

    fn lookup_tenant(&self, handle: u64) -> Result<usize, (ErrorCode, String)> {
        self.tenants.index_of(handle).ok_or_else(|| {
            (
                ErrorCode::UnknownTenant,
                format!("no tenant with handle {handle}"),
            )
        })
    }

    fn tenant_join(&mut self, name: String, weight: u32, speedup: Vec<f64>) -> CommandResult {
        if self.tenants.len() >= self.config.limits.max_tenants {
            return Err((
                ErrorCode::QuotaExceeded,
                format!("tenant limit {} reached", self.config.limits.max_tenants),
            ));
        }
        if weight == 0 {
            return Err((
                ErrorCode::InvalidArgument,
                "weight must be at least 1".to_string(),
            ));
        }
        let speedup = self.parse_speedup(speedup)?;
        let handle = self.tenants.insert();
        let index = self
            .tenants
            .index_of(handle)
            .expect("freshly minted handle resolves");
        let assigned = self
            .engine
            .state_mut()
            .add_tenant(Tenant::new(index, name, speedup).with_weight(weight));
        debug_assert_eq!(assigned, index, "tenant index map and state diverged");
        Ok(Response::TenantJoined { tenant: handle })
    }

    fn tenant_leave(&mut self, handle: u64) -> CommandResult {
        let index = self.lookup_tenant(handle)?;
        self.tenants.remove(handle);
        // Engine-level removal keeps the rounding placer's deviation rows
        // aligned with the compacted tenant indices.
        self.engine.remove_tenant(index);
        // Fold the tenant's cost history into the departed bucket and drop
        // its exposed series — per-tenant cardinality must not outlive the
        // tenant.
        if let Some(attrib) = &self.attrib {
            attrib.evict(self.wire_handle(handle));
        }
        Ok(Response::TenantLeft { tenant: handle })
    }

    /// Whether admission control would accept one more tenant right now.
    /// Migration planners pre-check this so a move is only attempted when the
    /// target shard has room.
    pub fn has_tenant_capacity(&self) -> bool {
        self.tenants.len() < self.config.limits.max_tenants
    }

    /// Pulls a tenant's complete state out of this shard: the tenant (with
    /// its unfinished jobs) leaves the cluster state, its handle dies, and
    /// its rounding-deviation row is captured for the move.  The extract side
    /// of a cross-shard migration.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownTenant`] when the handle is not registered.
    pub fn extract_tenant(&mut self, handle: u64) -> Result<TenantExtract, CommandError> {
        let index = self.lookup_tenant(handle)?;
        let k = self.engine.state().topology().num_gpu_types();
        let mut deviation = self
            .engine
            .rounding()
            .row(index)
            .map(<[f64]>::to_vec)
            .unwrap_or_default();
        // The placer's table grows lazily; a tenant that never saw a physical
        // round carries an implicit all-zero row.
        deviation.resize(k, 0.0);
        self.tenants.remove(handle);
        let tenant = self
            .engine
            .remove_tenant(index)
            .expect("a live handle resolves to a live tenant");
        // The handle dies here; the re-minted tenant on the target shard
        // accumulates under its fresh handle.  History goes to `departed`.
        if let Some(attrib) = &self.attrib {
            attrib.evict(self.wire_handle(handle));
        }
        Ok(TenantExtract { tenant, deviation })
    }

    /// Installs a tenant extracted from another shard, minting a fresh handle
    /// for it here.  Admission control applies (the move is refused, not
    /// forced, when this shard is full); the tenant's job ids are preserved
    /// and the shard's job-id counter is raised past them so future ids can
    /// never collide; the deviation row lands in this shard's placer.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::QuotaExceeded`] when the tenant limit is reached,
    /// [`ErrorCode::InvalidArgument`] when the extract's profiles do not
    /// cover this shard's GPU types.
    pub fn install_tenant(&mut self, extract: TenantExtract) -> Result<u64, CommandError> {
        if !self.has_tenant_capacity() {
            return Err((
                ErrorCode::QuotaExceeded,
                format!("tenant limit {} reached", self.config.limits.max_tenants),
            ));
        }
        let k = self.engine.state().topology().num_gpu_types();
        if extract.tenant.true_speedup.num_gpu_types() != k
            || extract.tenant.reported_speedup.num_gpu_types() != k
            || extract.deviation.len() != k
            || extract
                .tenant
                .jobs
                .iter()
                .any(|j| j.speedup.num_gpu_types() != k)
        {
            return Err((
                ErrorCode::InvalidArgument,
                format!(
                    "migrated tenant `{}` does not cover this shard's {k} GPU types",
                    extract.tenant.name
                ),
            ));
        }
        let max_job_id = extract.tenant.jobs.iter().map(|j| j.id.0).max();
        let handle = self.tenants.insert();
        let index = self
            .tenants
            .index_of(handle)
            .expect("freshly minted handle resolves");
        let assigned = self.engine.state_mut().add_tenant(extract.tenant);
        debug_assert_eq!(assigned, index, "tenant index map and state diverged");
        if let Some(max) = max_job_id {
            self.engine.state_mut().reserve_job_ids(max + 1);
        }
        self.engine.install_deviation_row(index, &extract.deviation);
        Ok(handle)
    }

    fn update_speedups(&mut self, handle: u64, speedup: Vec<f64>) -> CommandResult {
        let index = self.lookup_tenant(handle)?;
        let speedup = self.parse_speedup(speedup)?;
        self.engine
            .state_mut()
            .set_speedup_profile(index, speedup)
            .map_err(|e| (ErrorCode::InvalidArgument, e.to_string()))?;
        Ok(Response::SpeedupsUpdated { tenant: handle })
    }

    fn submit_job(
        &mut self,
        handle: u64,
        model: String,
        workers: usize,
        total_work: f64,
    ) -> CommandResult {
        let index = self.lookup_tenant(handle)?;
        if !(total_work > 0.0 && total_work.is_finite()) {
            return Err((
                ErrorCode::InvalidArgument,
                "total_work must be positive and finite".to_string(),
            ));
        }
        if workers == 0 {
            return Err((
                ErrorCode::InvalidArgument,
                "a job needs at least one worker".to_string(),
            ));
        }
        let unfinished = self
            .engine
            .state()
            .tenant(index)
            .jobs
            .iter()
            .filter(|j| !j.is_finished())
            .count();
        if unfinished >= self.config.limits.max_jobs_per_tenant {
            return Err((
                ErrorCode::QuotaExceeded,
                format!(
                    "tenant {handle} already holds {unfinished} unfinished jobs (limit {})",
                    self.config.limits.max_jobs_per_tenant
                ),
            ));
        }
        let speedup = self.engine.state().tenant(index).true_speedup.clone();
        let now = self.engine.now();
        let job = Job::new(JobId(0), index, model, workers, speedup, total_work, now);
        let id = self.engine.state_mut().submit_job(index, job);
        Ok(Response::JobSubmitted {
            tenant: handle,
            job: id.0,
        })
    }

    fn job_finished(&mut self, handle: u64, job: u64) -> CommandResult {
        let index = self.lookup_tenant(handle)?;
        let now = self.engine.now();
        let tenant = self.engine.state_mut().tenant_mut(index);
        let Some(job_ref) = tenant.job_mut(JobId(job)) else {
            return Err((
                ErrorCode::UnknownJob,
                format!("tenant {handle} has no job {job}"),
            ));
        };
        let remaining = job_ref.remaining_work;
        job_ref.advance(remaining + 1.0, now);
        Ok(Response::JobFinished {
            tenant: handle,
            job,
        })
    }

    fn add_host(&mut self, gpu_type: usize, num_gpus: usize) -> CommandResult {
        if self.engine.state().topology().hosts().len() >= self.config.limits.max_hosts {
            return Err((
                ErrorCode::QuotaExceeded,
                format!("host limit {} reached", self.config.limits.max_hosts),
            ));
        }
        let host = self
            .engine
            .state_mut()
            .add_host(GpuType(gpu_type), num_gpus)
            .map_err(|e| (ErrorCode::InvalidArgument, e.to_string()))?;
        Ok(Response::HostAdded { host: host.raw() })
    }

    fn remove_host(&mut self, host: u64) -> CommandResult {
        let handle = HostHandle(host);
        if !self.engine.state().topology().contains_host(handle) {
            return Err((
                ErrorCode::UnknownHost,
                format!(
                    "no host with handle {host} (handles are stable: a removed host's \
                         handle is never reused)"
                ),
            ));
        }
        self.engine
            .state_mut()
            .remove_host(handle)
            .map_err(|e| (ErrorCode::InvalidArgument, e.to_string()))?;
        Ok(Response::HostRemoved { host })
    }

    fn tick(&mut self) -> CommandResult {
        let stats_before = self.policy.solver_stats();
        let record = {
            let _solve = oef_trace::span("solve");
            // Always-on twin of the sampled span: every solve lands in the
            // profiler's rolling windows, traced or not.
            let _profile = oef_trace::profile::phase("solve");
            self.engine
                .step(&*self.policy)
                .map_err(|e| (ErrorCode::Internal, e.to_string()))?
        };
        let warm_start = match (stats_before, self.policy.solver_stats()) {
            (Some(before), Some(after)) => after.warm_solves > before.warm_solves,
            _ => false,
        };
        // Solver-effort counters on the active trace (no-ops when this tick
        // is not being recorded): how much LU work the solve cost.
        if let (Some(before), Some(after)) = (stats_before, self.policy.solver_stats()) {
            oef_trace::count(
                "eta_pivot",
                after.eta_pivots.saturating_sub(before.eta_pivots),
            );
            oef_trace::count(
                "refactorize",
                after
                    .refactorizations
                    .saturating_sub(before.refactorizations),
            );
        }
        // Empty rounds run no solve; recording their 0.0 would corrupt the
        // latency percentiles and detach rounds_solved from the solve counters.
        if !record.tenants.is_empty() {
            self.metrics.record_round(record.solver_time_secs);
            self.sample_fairness_obs(&record);
            self.record_attribution(&record);
        }
        // A long-lived daemon must not accumulate job history without bound:
        // completed jobs leave the state (counted in the metrics registry),
        // which keeps per-round scans, snapshots and memory flat.  Scheduling
        // is unaffected — only runnable/unfinished jobs influence rounds.
        // The step counted the finished jobs it saw and made, so a round
        // that finished none skips the pass over every resident job.
        if self.engine.finished_jobs_resident() > 0 {
            let mut completed = 0u64;
            for tenant in self.engine.state_mut().tenants_mut() {
                let before = tenant.jobs.len();
                tenant.jobs.retain(|j| !j.is_finished());
                completed += (before - tenant.jobs.len()) as u64;
            }
            self.metrics.record_jobs_completed(completed);
        }
        let tenants = record
            .tenants
            .into_iter()
            .map(|t| TenantRoundSummary {
                tenant: self.tenants.handle_at(t.tenant).unwrap_or(0),
                estimated_throughput: t.estimated_throughput,
                actual_throughput: t.actual_throughput,
                devices_held: t.devices_held,
                gpu_shares: t.gpu_shares,
            })
            .collect();
        Ok(Response::RoundCompleted(RoundSummary {
            round: record.round,
            time_secs: record.time_secs,
            solver_time_secs: record.solver_time_secs,
            warm_start,
            tenants,
        }))
    }

    fn metrics_report(&self, queue_depth: usize) -> Response {
        let stats = self.policy.solver_stats().unwrap_or_default();
        let total_solves = stats.warm_solves + stats.cold_solves;
        Response::Metrics(MetricsReport {
            commands_processed: self.metrics.commands_processed(),
            commands_rejected: self.metrics.commands_rejected(),
            rounds_solved: self.metrics.rounds_solved(),
            jobs_completed: self.metrics.jobs_completed(),
            warm_solves: stats.warm_solves,
            cold_solves: stats.cold_solves,
            dense_fallbacks: stats.dense_fallbacks,
            basis_repairs: stats.basis_repairs,
            churn_repairs: stats.churn_repairs,
            refactorizations: stats.refactorizations,
            eta_pivots: stats.eta_pivots,
            warm_hit_rate: if total_solves == 0 {
                0.0
            } else {
                stats.warm_solves as f64 / total_solves as f64
            },
            solve_p50_secs: self.metrics.solve_percentile(0.5),
            solve_p99_secs: self.metrics.solve_percentile(0.99),
            solve_last_secs: self.metrics.last_solve_secs(),
            queue_depth,
            tenants: self.tenants.len(),
            hosts: self.engine.state().topology().hosts().len(),
            tenants_migrated: 0,
            uptime_secs: self.started.elapsed().as_secs_f64(),
            solve_ewma_secs: Vec::new(),
            journal_appends: 0,
            journal_fsyncs: 0,
            journal_appended_bytes: 0,
            journal_truncated_bytes_on_recovery: 0,
        })
    }

    /// The v2 snapshot JSON, independent of the command dispatch and its
    /// shutting-down gate: durable wrappers checkpoint *after* a `Shutdown`
    /// has been accepted, when the wire `Snapshot` command is already
    /// refused.
    ///
    /// # Errors
    ///
    /// Serialization failures, as a message.
    pub fn snapshot_json(&self) -> Result<String, String> {
        serde_json::to_string(&self.snapshot_ref()).map_err(|e| format!("snapshot failed: {e}"))
    }

    /// The v2 snapshot of this service as a view borrowing its live state:
    /// serializing it writes the snapshot document without cloning anything.
    pub fn snapshot_ref(&self) -> ServiceSnapshotRef<'_> {
        ServiceSnapshotRef {
            version: SNAPSHOT_VERSION,
            config: &self.config,
            now_secs: self.engine.now(),
            round: self.engine.rounds_run(),
            state: self.engine.state(),
            rounding: self.engine.rounding(),
            tenant_handles: &self.tenants,
        }
    }

    fn snapshot(&self) -> CommandResult {
        let snapshot = self
            .snapshot_json()
            .map_err(|message| (ErrorCode::Internal, message))?;
        Ok(Response::Snapshot { snapshot })
    }

    fn restore(&mut self, snapshot: &str) -> CommandResult {
        let restored = Self::from_snapshot_json(snapshot).map_err(|e| match e {
            ServiceError::BadSnapshot(m) => (ErrorCode::InvalidArgument, m),
            ServiceError::UnknownPolicy(m) => {
                (ErrorCode::InvalidArgument, format!("unknown policy `{m}`"))
            }
            ServiceError::InvalidConfig(m) => (ErrorCode::InvalidArgument, m),
        })?;
        let tenants = restored.tenants.len();
        // The metrics registry and uptime clock describe this process, not
        // the restored state: keep them running across the restore.
        let metrics = std::mem::take(&mut self.metrics);
        let shard_obs = self.shard_obs.take();
        let attrib = self.attrib.take();
        let attrib_shard = self.attrib_shard;
        let started = self.started;
        // Likewise the command queue was sized when this process spawned and
        // cannot be resized live: keep the running capacity authoritative so
        // `config()` reflects actual behavior.  The snapshot's capacity
        // applies when a daemon *starts* with `--restore`.
        let queue_capacity = self.config.limits.queue_capacity;
        *self = restored;
        self.metrics = metrics;
        self.shard_obs = shard_obs;
        self.attrib = attrib;
        self.attrib_shard = attrib_shard;
        self.started = started;
        self.config.limits.queue_capacity = queue_capacity;
        // The restore replaced the tenant population wholesale: fold cost
        // history of handles that no longer exist into the departed bucket.
        if let Some(attrib) = self.attrib.clone() {
            let live: Vec<u64> = self
                .tenants
                .handles()
                .iter()
                .map(|&h| self.wire_handle(h))
                .collect();
            attrib.retain(&live);
        }
        Ok(Response::Restored { tenants })
    }

    fn status(&self) -> Response {
        let state = self.engine.state();
        let topology = state.topology();
        let jobs = state
            .tenants()
            .iter()
            .flat_map(|t| t.jobs.iter())
            .filter(|j| !j.is_finished())
            .count();
        Response::Status(StatusReport {
            policy: self.config.policy.clone(),
            protocol: PROTOCOL_VERSION,
            uptime_secs: self.started.elapsed().as_secs_f64(),
            round: self.engine.rounds_run(),
            time_secs: self.engine.now(),
            tenants: self.tenants.len(),
            jobs,
            hosts: topology.hosts().len(),
            total_devices: topology.total_devices(),
            topology: topology
                .hosts()
                .iter()
                .map(|h| HostStatusEntry {
                    host: h.handle.raw(),
                    gpu_type: h.gpu_type.0,
                    num_gpus: h.num_gpus,
                })
                .collect(),
            shards: Vec::new(),
            forwarding_entries: 0,
            forwarding_depth: 0,
        })
    }
}

impl CommandHandler for SchedulerService {
    fn apply(&mut self, command: Command, queue_depth: usize) -> Response {
        SchedulerService::apply(self, command, queue_depth)
    }

    fn queue_capacity(&self) -> usize {
        self.config.limits.queue_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> SchedulerService {
        SchedulerService::new(ClusterTopology::paper_cluster(), ServiceConfig::default()).unwrap()
    }

    fn join(service: &mut SchedulerService, name: &str, speedup: Vec<f64>) -> u64 {
        match service.apply(
            Command::TenantJoin {
                name: name.into(),
                weight: 1,
                speedup,
            },
            0,
        ) {
            Response::TenantJoined { tenant } => tenant,
            other => panic!("join failed: {other:?}"),
        }
    }

    #[test]
    fn join_submit_tick_leave_lifecycle() {
        let mut svc = service();
        let alice = join(&mut svc, "alice", vec![1.0, 1.2, 1.4]);
        let bob = join(&mut svc, "bob", vec![1.0, 1.6, 2.2]);
        assert_eq!((alice, bob), (1, 2));

        for tenant in [alice, bob] {
            let r = svc.apply(
                Command::SubmitJob {
                    tenant,
                    model: "vgg16".into(),
                    workers: 2,
                    total_work: 1e9,
                },
                0,
            );
            assert!(matches!(r, Response::JobSubmitted { .. }), "{r:?}");
        }

        let Response::RoundCompleted(round) = svc.apply(Command::Tick, 0) else {
            panic!("tick failed");
        };
        assert_eq!(round.round, 0);
        assert_eq!(round.tenants.len(), 2);
        assert!(round.tenants.iter().any(|t| t.tenant == alice));
        assert!(round.total_devices() > 0);

        let r = svc.apply(Command::TenantLeave { tenant: alice }, 0);
        assert!(matches!(r, Response::TenantLeft { .. }), "{r:?}");
        let Response::RoundCompleted(round) = svc.apply(Command::Tick, 0) else {
            panic!("tick failed");
        };
        assert_eq!(round.tenants.len(), 1);
        assert_eq!(round.tenants[0].tenant, bob, "handles survive re-indexing");
    }

    impl RoundSummary {
        fn total_devices(&self) -> usize {
            self.tenants.iter().map(|t| t.devices_held).sum()
        }
    }

    #[test]
    fn admission_control_rejects_over_quota() {
        let config = ServiceConfig {
            limits: ServiceLimits {
                max_tenants: 2,
                max_jobs_per_tenant: 1,
                max_hosts: 6,
                queue_capacity: 8,
            },
            ..ServiceConfig::default()
        };
        let mut svc = SchedulerService::new(ClusterTopology::paper_cluster(), config).unwrap();
        let a = join(&mut svc, "a", vec![1.0, 1.2, 1.4]);
        let _b = join(&mut svc, "b", vec![1.0, 1.2, 1.4]);
        let r = svc.apply(
            Command::TenantJoin {
                name: "c".into(),
                weight: 1,
                speedup: vec![1.0, 1.2, 1.4],
            },
            0,
        );
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::QuotaExceeded,
                    ..
                }
            ),
            "{r:?}"
        );

        // Per-tenant job quota.
        svc.apply(
            Command::SubmitJob {
                tenant: a,
                model: "m".into(),
                workers: 1,
                total_work: 100.0,
            },
            0,
        );
        let r = svc.apply(
            Command::SubmitJob {
                tenant: a,
                model: "m".into(),
                workers: 1,
                total_work: 100.0,
            },
            0,
        );
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::QuotaExceeded,
                    ..
                }
            ),
            "{r:?}"
        );

        // Host quota: paper cluster already has 6 hosts.
        let r = svc.apply(
            Command::AddHost {
                gpu_type: 0,
                num_gpus: 4,
            },
            0,
        );
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::QuotaExceeded,
                    ..
                }
            ),
            "{r:?}"
        );
    }

    #[test]
    fn validation_and_unknown_handle_errors() {
        let mut svc = service();
        let r = svc.apply(
            Command::TenantJoin {
                name: "bad".into(),
                weight: 1,
                speedup: vec![1.0, 2.0],
            },
            0,
        );
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::InvalidArgument,
                    ..
                }
            ),
            "wrong arity: {r:?}"
        );
        let r = svc.apply(Command::TenantLeave { tenant: 99 }, 0);
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::UnknownTenant,
                    ..
                }
            ),
            "{r:?}"
        );
        let r = svc.apply(Command::RemoveHost { handle: 77 }, 0);
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::UnknownHost,
                    ..
                }
            ),
            "{r:?}"
        );
        let t = join(&mut svc, "alice", vec![1.0, 1.2, 1.4]);
        let r = svc.apply(Command::JobFinished { tenant: t, job: 5 }, 0);
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::UnknownJob,
                    ..
                }
            ),
            "{r:?}"
        );
    }

    #[test]
    fn warm_start_kicks_in_on_steady_ticks() {
        let mut svc = service();
        for name in ["a", "b", "c"] {
            let t = join(&mut svc, name, vec![1.0, 1.3, 1.9]);
            svc.apply(
                Command::SubmitJob {
                    tenant: t,
                    model: "m".into(),
                    workers: 1,
                    total_work: 1e9,
                },
                0,
            );
        }
        let mut warm = 0;
        for i in 0..6 {
            let Response::RoundCompleted(round) = svc.apply(Command::Tick, 0) else {
                panic!("tick {i} failed");
            };
            if round.warm_start {
                warm += 1;
            }
        }
        assert!(
            warm >= 5,
            "expected warm starts on steady ticks, got {warm}/6"
        );

        let Response::Metrics(m) = svc.apply(Command::Metrics, 3) else {
            panic!("metrics failed");
        };
        assert_eq!(m.rounds_solved, 6);
        assert!(m.warm_hit_rate > 0.8, "hit rate {}", m.warm_hit_rate);
        assert_eq!(m.queue_depth, 3);
        assert!(m.solve_p50_secs > 0.0);
    }

    #[test]
    fn snapshot_restore_round_trips_in_process() {
        let mut svc = service();
        let t = join(&mut svc, "alice", vec![1.0, 1.2, 1.4]);
        svc.apply(
            Command::SubmitJob {
                tenant: t,
                model: "m".into(),
                workers: 2,
                total_work: 1e8,
            },
            0,
        );
        svc.apply(Command::Tick, 0);
        let Response::Snapshot { snapshot } = svc.apply(Command::Snapshot, 0) else {
            panic!("snapshot failed");
        };

        let restored = SchedulerService::from_snapshot_json(&snapshot).unwrap();
        assert_eq!(restored.tenant_handles(), svc.tenant_handles());
        assert_eq!(restored.state(), svc.state());
        assert_eq!(restored.config(), svc.config());

        // A fresh service can also swallow the snapshot via the wire command.
        let mut other = service();
        let r = other.apply(Command::Restore { snapshot }, 0);
        assert!(matches!(r, Response::Restored { tenants: 1 }), "{r:?}");
        assert_eq!(other.state(), svc.state());
    }

    #[test]
    fn shutdown_blocks_further_mutations() {
        let mut svc = service();
        assert!(matches!(
            svc.apply(Command::Shutdown, 0),
            Response::ShuttingDown
        ));
        assert!(svc.is_shutting_down());
        let r = svc.apply(Command::Tick, 0);
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::ShuttingDown,
                    ..
                }
            ),
            "{r:?}"
        );
        // Status stays readable for observability.
        assert!(matches!(svc.apply(Command::Status, 0), Response::Status(_)));
    }

    #[test]
    fn stale_tenant_handle_is_rejected_on_restore() {
        let mut svc = service();
        join(&mut svc, "alice", vec![1.0, 1.2, 1.4]);
        let Response::Snapshot { snapshot } = svc.apply(Command::Snapshot, 0) else {
            panic!("snapshot failed");
        };
        // Corrupt the tenant handle map: a dense handle with a bumped
        // generation references a dead slot; accepting it would let a stale
        // wire handle alias a future tenant.
        let stale = (1u64 << 32) | 1;
        let corrupted = snapshot.replace("\"handles\":[1],", &format!("\"handles\":[{stale}],"));
        assert_ne!(corrupted, snapshot, "fixture must actually corrupt");
        let err = SchedulerService::from_snapshot_json(&corrupted).unwrap_err();
        assert!(matches!(err, ServiceError::BadSnapshot(_)), "{err:?}");
        let r = svc.apply(
            Command::Restore {
                snapshot: corrupted,
            },
            0,
        );
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::InvalidArgument,
                    ..
                }
            ),
            "{r:?}"
        );
    }

    #[test]
    fn snapshot_referencing_a_dead_host_is_rejected() {
        let mut svc = service();
        let Response::HostAdded { host } = svc.apply(
            Command::AddHost {
                gpu_type: 0,
                num_gpus: 4,
            },
            0,
        ) else {
            panic!("add host failed");
        };
        assert_eq!(host, 7, "paper cluster has hosts 1..=6");
        let Response::Snapshot { snapshot } = svc.apply(Command::Snapshot, 0) else {
            panic!("snapshot failed");
        };
        // Rewrite host 7's dense entry to a bumped generation: the handle now
        // points at a slot that never held that generation — a dead host.
        let stale = (1u64 << 32) | 7;
        let corrupted = snapshot.replace(
            "\"handles\":[1,2,3,4,5,6,7]",
            &format!("\"handles\":[1,2,3,4,5,6,{stale}]"),
        );
        assert_ne!(corrupted, snapshot, "fixture must actually corrupt");
        let err = SchedulerService::from_snapshot_json(&corrupted).unwrap_err();
        let ServiceError::BadSnapshot(reason) = err else {
            panic!("expected BadSnapshot");
        };
        assert!(reason.contains("dead slot"), "reason: {reason}");
        let r = svc.apply(
            Command::Restore {
                snapshot: corrupted,
            },
            0,
        );
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::InvalidArgument,
                    ..
                }
            ),
            "{r:?}"
        );
    }

    #[test]
    fn v1_snapshots_are_refused_with_a_structured_error() {
        let mut svc = service();
        let Response::Snapshot { snapshot } = svc.apply(Command::Snapshot, 0) else {
            panic!("snapshot failed");
        };
        let v1 = snapshot.replace("\"version\":2", "\"version\":1");
        assert_ne!(v1, snapshot, "fixture must actually downgrade");
        let err = SchedulerService::from_snapshot_json(&v1).unwrap_err();
        let ServiceError::BadSnapshot(reason) = err else {
            panic!("expected BadSnapshot");
        };
        assert!(
            reason.contains("version 1") && reason.contains("supports 2"),
            "reason must name both versions: {reason}"
        );
        // Over the wire it is an ordinary InvalidArgument reply, not a panic.
        let r = svc.apply(Command::Restore { snapshot: v1 }, 0);
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::InvalidArgument,
                    ..
                }
            ),
            "{r:?}"
        );
        let missing = SchedulerService::from_snapshot_json("{\"config\":{}}").unwrap_err();
        assert!(matches!(missing, ServiceError::BadSnapshot(_)));
    }

    #[test]
    fn inconsistent_snapshot_state_is_rejected() {
        let mut svc = service();
        join(&mut svc, "alice", vec![1.0, 1.2, 1.4]);
        let Response::Snapshot { snapshot } = svc.apply(Command::Snapshot, 0) else {
            panic!("snapshot failed");
        };
        // A tenant whose id disagrees with its position would panic the next
        // tick if accepted; the restore must refuse it up front.
        let corrupted = snapshot.replace(
            "{\"id\":0,\"name\":\"alice\"",
            "{\"id\":7,\"name\":\"alice\"",
        );
        assert_ne!(corrupted, snapshot, "fixture must actually corrupt");
        let err = SchedulerService::from_snapshot_json(&corrupted).unwrap_err();
        assert!(matches!(err, ServiceError::BadSnapshot(_)), "{err:?}");
    }

    #[test]
    fn empty_rounds_do_not_pollute_solver_metrics() {
        let mut svc = service();
        svc.apply(Command::Tick, 0);
        svc.apply(Command::Tick, 0);
        let Response::Metrics(m) = svc.apply(Command::Metrics, 0) else {
            panic!("metrics failed");
        };
        assert_eq!(m.rounds_solved, 0, "no-tenant rounds run no solve");
        assert_eq!(m.solve_p50_secs, 0.0);
    }

    #[test]
    fn finished_jobs_are_pruned_and_counted() {
        let mut svc = service();
        let t = join(&mut svc, "alice", vec![1.0, 1.2, 1.4]);
        let Response::JobSubmitted { job, .. } = svc.apply(
            Command::SubmitJob {
                tenant: t,
                model: "m".into(),
                workers: 1,
                total_work: 100.0,
            },
            0,
        ) else {
            panic!("submit failed");
        };
        svc.apply(Command::JobFinished { tenant: t, job }, 0);
        assert_eq!(
            svc.state().tenant(0).jobs.len(),
            1,
            "pruning waits for the tick"
        );
        svc.apply(Command::Tick, 0);
        assert_eq!(svc.state().tenant(0).jobs.len(), 0, "finished job pruned");
        let Response::Metrics(m) = svc.apply(Command::Metrics, 0) else {
            panic!("metrics failed");
        };
        assert_eq!(m.jobs_completed, 1);
    }

    #[test]
    fn extract_install_round_trips_tenant_state() {
        let mut src = service();
        let mut dst = service();
        let alice = join(&mut src, "alice", vec![1.0, 1.2, 1.4]);
        let bob = join(&mut src, "bob", vec![1.0, 1.5, 2.0]);
        for tenant in [alice, bob] {
            src.apply(
                Command::SubmitJob {
                    tenant,
                    model: "m".into(),
                    workers: 2,
                    total_work: 1e9,
                },
                0,
            );
        }
        // A few physical rounds accrue non-trivial rounding deviations.
        for _ in 0..3 {
            src.apply(Command::Tick, 0);
        }
        let job_before: Vec<_> = src.state().tenant(0).jobs.clone();

        let extract = src.extract_tenant(alice).unwrap();
        assert_eq!(extract.tenant.name, "alice");
        assert_eq!(extract.tenant.jobs, job_before, "jobs ride with progress");
        assert_eq!(extract.deviation.len(), 3);
        assert!(
            extract.deviation.iter().any(|d| d.abs() > 1e-12),
            "physical rounds should leave a deviation trail: {:?}",
            extract.deviation
        );
        // The source forgot the tenant entirely.
        assert_eq!(src.tenant_handles().len(), 1);
        let r = src.apply(Command::TenantLeave { tenant: alice }, 0);
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::UnknownTenant,
                ..
            }
        ));

        let new_handle = dst.install_tenant(extract.clone()).unwrap();
        assert_eq!(dst.tenant_handles(), &[new_handle]);
        assert_eq!(dst.state().tenant(0).name, "alice");
        assert_eq!(dst.state().tenant(0).jobs.len(), job_before.len());
        assert_eq!(
            dst.state().tenant(0).jobs[0].id,
            job_before[0].id,
            "job ids are preserved across the move"
        );
        // The old job id still resolves on the new shard.
        let r = dst.apply(
            Command::JobFinished {
                tenant: new_handle,
                job: job_before[0].id.0,
            },
            0,
        );
        assert!(matches!(r, Response::JobFinished { .. }), "{r:?}");
        // Fresh job ids mint above the migrated ones.
        let Response::JobSubmitted { job, .. } = dst.apply(
            Command::SubmitJob {
                tenant: new_handle,
                model: "m".into(),
                workers: 1,
                total_work: 100.0,
            },
            0,
        ) else {
            panic!("submit failed");
        };
        assert!(
            job > job_before.iter().map(|j| j.id.0).max().unwrap(),
            "job-id counter must be reserved past migrated ids"
        );

        // Quota applies on install.
        let config = ServiceConfig {
            limits: ServiceLimits {
                max_tenants: 0,
                ..ServiceLimits::default()
            },
            ..ServiceConfig::default()
        };
        let mut full = SchedulerService::new(ClusterTopology::paper_cluster(), config).unwrap();
        let err = full.install_tenant(extract).unwrap_err();
        assert_eq!(err.0, ErrorCode::QuotaExceeded);
    }

    #[test]
    fn migration_commands_are_rejected_unsharded() {
        let mut svc = service();
        for command in [
            Command::MigrateTenant {
                tenant: 1,
                shard: 1,
            },
            Command::Rebalance,
        ] {
            let r = svc.apply(command, 0);
            assert!(
                matches!(
                    &r,
                    Response::Error { code: ErrorCode::InvalidArgument, message }
                        if message.contains("a shard core does not migrate tenants")
                ),
                "{r:?}"
            );
        }
    }

    #[test]
    fn unknown_policy_is_a_construction_error() {
        let config = ServiceConfig {
            policy: "round-robin".into(),
            ..ServiceConfig::default()
        };
        let err = SchedulerService::new(ClusterTopology::paper_cluster(), config).unwrap_err();
        assert!(matches!(err, ServiceError::UnknownPolicy(_)));
    }
}
