//! The shard coordinator: N independent scheduler shards behind one wire
//! protocol.
//!
//! [`ShardCoordinator`] owns a vector of [`SchedulerService`] shards — each
//! with its own cluster state, allocation policy and warm-started solver
//! context — and routes the *unchanged* v2 wire protocol across them:
//!
//! * Commands that create identity (`TenantJoin`, `AddHost`) are placed by a
//!   pluggable [`ShardPlacement`] strategy; the reply's handle is tagged with
//!   the shard index in its high bits (see [`oef_core::sharded`]).
//! * Commands that carry a handle are routed by decoding those same bits —
//!   the coordinator keeps **no** tenant or host table of its own, so routing
//!   is O(1) and can never drift out of sync with the shards.  The one
//!   exception is the **forwarding table**: when a tenant migrates, its old
//!   handle maps to the re-minted one (chains compress on lookup), so every
//!   handle a client ever held keeps working across any number of moves.
//! * `MigrateTenant` moves one tenant's complete state — profile, jobs,
//!   rounding-deviation row — to another shard via
//!   [`oef_rebalance::TenantMigrator`]; `Rebalance` runs one pass of the
//!   online [`oef_rebalance::Rebalancer`] over the observed per-shard load
//!   (tenants, jobs, solve-latency EWMA) and executes the plan it returns.
//! * `Tick` fans out to every shard in parallel (`std::thread::scope`) and
//!   merges the per-shard round summaries; each shard's LP stays small enough
//!   to sit in the warm-start sweet spot while the solves overlap on separate
//!   cores.
//! * `Status` / `Metrics` aggregate across shards; `Snapshot` / `Restore`
//!   speak the federated v5 envelope (per-shard v2 snapshots + placement
//!   cursor + forwarding table + rebalancer config + the journal sequence
//!   number the snapshot covers).
//!
//! Shard 0 uses the identity handle encoding and a single-shard coordinator
//! ticks serially, so it answers every command a bare [`SchedulerService`]
//! answers with the same reply — which is why `oef-serviced` serves a
//! coordinator at every shard count.

use crate::placement::{ShardLoad, ShardPlacement};
use crate::snapshot::{
    FederatedSnapshotHeader, FederatedSnapshotRef, ForwardingEntry, PlacementState,
    FEDERATED_SNAPSHOT_VERSION,
};
use oef_attrib::AttributionRegistry;
use oef_cluster::ClusterTopology;
use oef_core::sharded;
use oef_obs::{Counter, Gauge, GaugeFamily, Registry};
use oef_rebalance::{
    MigrateFailure, Rebalancer, RebalancerConfig, ShardObservation, TenantMigrator,
};
use oef_service::{
    Command, CommandHandler, ErrorCode, ExecutedMigration, MetricsReport, RebalanceReport,
    Response, RoundSummary, ServiceConfig, ServiceError, ServiceMetrics, ShardStatusEntry,
    StatusReport, TenantRoundSummary, PROTOCOL_VERSION,
};
use serde::Deserialize;
use std::collections::HashMap;
use std::time::Instant;

/// What a parsed v5 envelope yields: everything a coordinator restores.
struct ParsedFederation {
    shards: Vec<oef_service::SchedulerService>,
    placement: Box<dyn ShardPlacement>,
    rounds: usize,
    config: ServiceConfig,
    forwarding: HashMap<u64, u64>,
    rebalancer: Rebalancer,
    journal_seq: u64,
}

/// Smoothing factor of the per-shard solve-latency EWMA (weight of the
/// newest observation).
const EWMA_ALPHA: f64 = 0.3;

/// Coordinator-level exposition cells: front-door gauges plus federation
/// topology series.  The registry handle lets `Restore` re-attach shards it
/// rebuilt.
struct CoordObs {
    registry: Registry,
    queue_depth: Gauge,
    uptime: Gauge,
    shards: Gauge,
    forwarding_entries: Gauge,
    forwarding_depth: Gauge,
    migrated: Counter,
    solve_ewma: GaugeFamily,
    trace_dropped: Counter,
    log_dropped: Counter,
}

/// A federation of scheduler shards speaking the ordinary service protocol.
pub struct ShardCoordinator {
    shards: Vec<oef_service::SchedulerService>,
    placement: Box<dyn ShardPlacement>,
    /// Per-shard configuration template (every shard runs the same policy and
    /// limits; quotas apply *per shard*).
    config: ServiceConfig,
    /// Coordinator rounds: every `Tick` advances all shards by one round.
    rounds: usize,
    /// Old wire handle → newer wire handle, one entry per migration whose
    /// tenant has not left yet.  Lookups chase and compress chains
    /// ([`sharded::resolve_forwarded`]); entries are durable (snapshot state)
    /// because clients hold the old handles durably.
    forwarding: HashMap<u64, u64>,
    /// The online rebalancer (its config is snapshot state).
    rebalancer: Rebalancer,
    /// Migrations the last `Rebalance` pass *attempted* (tenant wire handle,
    /// target shard), in execution order — including refused attempts, which
    /// still mutate (a rejected install re-mints the tenant on its source
    /// shard and inserts a rollback forwarding edge).  A write-ahead journal
    /// drains this trail ([`ShardCoordinator::drain_rebalance_trail`]) and
    /// logs each attempt as a `MigrateTenant`, because the *plan* is not
    /// replayable: it reads the solve-latency EWMA, a wall-clock signal.
    rebalance_trail: Vec<(u64, usize)>,
    /// Sequence number of the last journaled command applied (0 without a
    /// journal); rides in the v5 envelope so replay starts where the
    /// snapshot ends.
    journal_seq: u64,
    /// Per-shard EWMA of round solve latency — the load signal shards cannot
    /// compute themselves (it is only meaningful relative to the fan-out).
    solve_ewma: Vec<f64>,
    /// Tenants moved between shards over this process's lifetime.
    migrated: u64,
    /// Coordinator-level registry: command counters plus the latency window
    /// of the parallel tick fan-out (critical path over the shards).
    metrics: ServiceMetrics,
    /// Exposition cells, present once attached to a registry.  Like
    /// `metrics` they describe this process and survive `Restore`.
    obs: Option<CoordObs>,
    /// Shared per-tenant solve-cost registry; every shard holds a clone of
    /// the same accumulator, so its totals are the federation aggregate.
    /// Survives `Restore` (it describes this process's solver work).
    attrib: Option<AttributionRegistry>,
    /// Whether this process has more than one hardware thread to fan a tick
    /// out over.  Asked once, at construction: the answer costs a
    /// `sched_getaffinity` plus a cgroup-file parse and describes the
    /// process, not the federation, so `Restore` keeps it.
    multi_core: bool,
    started: Instant,
    shutting_down: bool,
}

/// Whether shard ticks can actually overlap on this machine.
fn has_multiple_cores() -> bool {
    std::thread::available_parallelism()
        .map(|p| p.get() > 1)
        .unwrap_or(false)
}

impl std::fmt::Debug for ShardCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCoordinator")
            .field("shards", &self.shards.len())
            .field("placement", &self.placement.name())
            .field("rounds", &self.rounds)
            .field("shutting_down", &self.shutting_down)
            .finish_non_exhaustive()
    }
}

impl ShardCoordinator {
    /// Builds a coordinator with one shard per topology, all running the same
    /// configuration.
    ///
    /// Admission quotas (`ServiceLimits`) apply **per shard**: a federation
    /// of N shards admits up to N × `max_tenants` tenants in total.  With
    /// least-loaded placement (the default) a join is refused only when
    /// every shard is full; round-robin consults no load, so its cursor can
    /// land on a full shard and refuse a join while others still have room.
    ///
    /// # Errors
    ///
    /// Fails when no topology is given, when more than
    /// [`sharded::MAX_SHARDS`] are, or when the configured policy is unknown.
    pub fn new(
        topologies: Vec<ClusterTopology>,
        config: ServiceConfig,
        placement: Box<dyn ShardPlacement>,
    ) -> Result<Self, ServiceError> {
        if topologies.is_empty() {
            return Err(ServiceError::InvalidConfig(
                "a coordinator needs at least one shard".to_string(),
            ));
        }
        if topologies.len() > sharded::MAX_SHARDS {
            return Err(ServiceError::InvalidConfig(format!(
                "{} shards exceed the handle encoding's limit of {}",
                topologies.len(),
                sharded::MAX_SHARDS
            )));
        }
        let shards = topologies
            .into_iter()
            .map(|t| oef_service::SchedulerService::new(t, config.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let solve_ewma = vec![0.0; shards.len()];
        Ok(Self {
            shards,
            placement,
            config,
            rounds: 0,
            forwarding: HashMap::new(),
            rebalancer: Rebalancer::new(RebalancerConfig::default())
                .expect("default rebalance policy resolves"),
            solve_ewma,
            migrated: 0,
            metrics: ServiceMetrics::new(),
            obs: None,
            attrib: None,
            multi_core: has_multiple_cores(),
            started: Instant::now(),
            shutting_down: false,
            rebalance_trail: Vec::new(),
            journal_seq: 0,
        })
    }

    /// Replaces the rebalancer (builder style) — e.g. to run `greedy-top-k`
    /// or a tighter threshold than the default configuration.
    pub fn with_rebalancer(mut self, rebalancer: Rebalancer) -> Self {
        self.rebalancer = rebalancer;
        self
    }

    /// Rebuilds a coordinator from a federated (v5) snapshot JSON string.
    ///
    /// # Errors
    ///
    /// Fails on malformed envelopes, any `version` other than
    /// [`FEDERATED_SNAPSHOT_VERSION`] (a bare shard snapshot included),
    /// unknown placement strategies or rebalance policies, corrupted
    /// forwarding tables, and any per-shard v2 validation failure.
    pub fn from_federated_json(snapshot: &str) -> Result<Self, ServiceError> {
        let parsed = Self::parse_federated(snapshot)?;
        let solve_ewma = vec![0.0; parsed.shards.len()];
        Ok(Self {
            shards: parsed.shards,
            placement: parsed.placement,
            config: parsed.config,
            rounds: parsed.rounds,
            forwarding: parsed.forwarding,
            rebalancer: parsed.rebalancer,
            solve_ewma,
            migrated: 0,
            metrics: ServiceMetrics::new(),
            obs: None,
            attrib: None,
            multi_core: has_multiple_cores(),
            started: Instant::now(),
            shutting_down: false,
            rebalance_trail: Vec::new(),
            journal_seq: parsed.journal_seq,
        })
    }

    fn parse_federated(snapshot: &str) -> Result<ParsedFederation, ServiceError> {
        let value: serde::Value =
            serde_json::from_str(snapshot).map_err(|e| ServiceError::BadSnapshot(e.to_string()))?;
        match value.get("version").and_then(serde::Value::as_u64) {
            Some(v) if v == u64::from(FEDERATED_SNAPSHOT_VERSION) => {}
            Some(v) => {
                return Err(ServiceError::BadSnapshot(format!(
                    "federated snapshot version {v} is not supported (coordinator supports \
                     {FEDERATED_SNAPSHOT_VERSION})"
                )));
            }
            None => {
                return Err(ServiceError::BadSnapshot(
                    "snapshot has no numeric `version` field".to_string(),
                ));
            }
        }
        let envelope = FederatedSnapshotHeader::deserialize(&value)
            .map_err(|e| ServiceError::BadSnapshot(e.to_string()))?;
        let entries = value
            .get("shards")
            .and_then(serde::Value::as_array)
            .ok_or_else(|| {
                ServiceError::BadSnapshot("snapshot has no `shards` array".to_string())
            })?;
        if entries.is_empty() {
            return Err(ServiceError::BadSnapshot(
                "federated snapshot holds no shards".to_string(),
            ));
        }
        if entries.len() > sharded::MAX_SHARDS {
            return Err(ServiceError::BadSnapshot(format!(
                "federated snapshot holds {} shards, above the limit of {}",
                entries.len(),
                sharded::MAX_SHARDS
            )));
        }
        let mut placement = crate::placement::placement_from_name(&envelope.placement.strategy)
            .ok_or_else(|| {
                ServiceError::BadSnapshot(format!(
                    "unknown placement strategy `{}`",
                    envelope.placement.strategy
                ))
            })?;
        placement.restore_cursor(envelope.placement.cursor);
        // Each shard entry goes through the complete unsharded restore path
        // — read in place from the parsed envelope, not rendered back to text
        // and parsed again — so the v2 version gate and every v2 validation
        // (identity maps, topology invariants) apply per shard.
        let mut shards: Vec<oef_service::SchedulerService> = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let shard = oef_service::SchedulerService::from_snapshot_value(entry)
                .map_err(|e| ServiceError::BadSnapshot(format!("shard {i}: {e}")))?;
            // Every shard runs the same policy and limits — the invariant the
            // coordinator's config template stands for.  A coordinator always
            // snapshots agreeing configs, so disagreement means a hand-edited
            // envelope; refuse it instead of silently scheduling one shard
            // under a different policy than `Status` reports.
            if i > 0 && shard.config() != shards[0].config() {
                return Err(ServiceError::BadSnapshot(format!(
                    "shard {i} config differs from shard 0 (all shards of a federation \
                     share one policy and one set of limits)"
                )));
            }
            shards.push(shard);
        }
        let config = shards[0].config().clone();
        // Forwarding table: refuse duplicates and cycles up front — a
        // corrupted table would otherwise panic some later lookup.
        let mut forwarding = HashMap::with_capacity(envelope.forwarding.len());
        for entry in &envelope.forwarding {
            if forwarding.insert(entry.from, entry.to).is_some() {
                return Err(ServiceError::BadSnapshot(format!(
                    "forwarding table maps handle {} twice",
                    sharded::format(entry.from)
                )));
            }
        }
        if let Err(start) = sharded::validate_acyclic(&forwarding) {
            return Err(ServiceError::BadSnapshot(format!(
                "forwarding table contains a cycle reachable from handle {}",
                sharded::format(start)
            )));
        }
        let rebalancer = Rebalancer::new(envelope.rebalancer).map_err(ServiceError::BadSnapshot)?;
        Ok(ParsedFederation {
            shards,
            placement,
            rounds: envelope.round,
            config,
            forwarding,
            rebalancer,
            journal_seq: envelope.journal_seq,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to the shards, in shard-index order (tests, reporting).
    pub fn shards(&self) -> &[oef_service::SchedulerService] {
        &self.shards
    }

    /// Coordinator rounds completed (every round ticks all shards once).
    pub fn rounds_run(&self) -> usize {
        self.rounds
    }

    /// Whether a `Shutdown` command has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Resolves a (possibly migrated-away) handle to the live handle it
    /// forwards to, compressing the chain it walked.  Handles that never
    /// migrated resolve to themselves.
    pub fn resolve_handle(&mut self, handle: u64) -> u64 {
        sharded::resolve_forwarded(&mut self.forwarding, handle)
    }

    /// Entries in the forwarding table.
    pub fn forwarding_entries(&self) -> usize {
        self.forwarding.len()
    }

    /// Longest forwarding chain (lookups compress, so this hovers at 1).
    pub fn forwarding_depth(&self) -> usize {
        sharded::forwarding_depth(&self.forwarding)
    }

    /// The rebalancer's durable configuration.
    pub fn rebalancer_config(&self) -> &RebalancerConfig {
        self.rebalancer.config()
    }

    /// Tenants moved between shards over this process's lifetime.
    pub fn tenants_migrated(&self) -> u64 {
        self.migrated
    }

    /// Sequence number of the last journaled command applied (0 without a
    /// journal).
    pub fn journal_seq(&self) -> u64 {
        self.journal_seq
    }

    /// Records that every command up to journal sequence `seq` is applied;
    /// the next snapshot embeds it so replay resumes at `seq + 1`.
    pub fn set_journal_seq(&mut self, seq: u64) {
        self.journal_seq = seq;
    }

    /// Takes the migrations the last `Rebalance` pass attempted (tenant wire
    /// handle, target shard), in execution order.  A journaling wrapper logs
    /// these as `MigrateTenant` commands — replaying the *moves* sidesteps
    /// the planner's dependence on wall-clock solve latencies.
    pub fn drain_rebalance_trail(&mut self) -> Vec<(u64, usize)> {
        std::mem::take(&mut self.rebalance_trail)
    }

    /// Hooks the federation's metric cells into `registry`: the front-door
    /// series and the fan-out histogram at the coordinator, every shard's
    /// solve/fairness series under its `{shard="N"}` label, and the
    /// federation topology gauges (shards, forwarding table, migrations,
    /// solve EWMA).
    pub fn attach_observability(&mut self, registry: &Registry) {
        self.metrics.register_front(registry);
        self.metrics.register_fanout(registry);
        for (shard, service) in self.shards.iter_mut().enumerate() {
            service.attach_shard_observability(registry, shard);
        }
        let obs = CoordObs {
            registry: registry.clone(),
            queue_depth: registry.gauge(
                "oef_queue_depth",
                "Commands waiting in the daemon's bounded queue.",
                &[],
            ),
            uptime: registry.gauge(
                "oef_uptime_seconds",
                "Seconds since the daemon process started.",
                &[],
            ),
            shards: registry.gauge("oef_shards", "Scheduler shards in the federation.", &[]),
            forwarding_entries: registry.gauge(
                "oef_forwarding_entries",
                "Live aliases in the migration forwarding table.",
                &[],
            ),
            forwarding_depth: registry.gauge(
                "oef_forwarding_depth",
                "Longest alias chain a handle lookup may chase.",
                &[],
            ),
            migrated: registry.counter(
                "oef_tenants_migrated_total",
                "Tenants moved between shards.",
                &[],
            ),
            solve_ewma: registry.gauge_family(
                "oef_solve_ewma_seconds",
                "Per-shard EWMA of round solve latency (the rebalancer's load signal).",
                &[],
            ),
            trace_dropped: registry.counter(
                "oef_trace_dropped_spans_total",
                "Spans dropped because a trace hit its per-trace span cap.",
                &[],
            ),
            log_dropped: registry.counter(
                "oef_log_dropped_lines_total",
                "Structured log lines dropped by the non-blocking writer.",
                &[],
            ),
        };
        self.obs = Some(obs);
        self.refresh_topology_obs();
    }

    /// Hands every shard a clone of one shared solve-cost registry, so
    /// per-tenant attribution aggregates across the federation.  Call after
    /// [`Self::attach_observability`] when the registry is also attached to
    /// the exposition registry.
    pub fn attach_attribution(&mut self, attrib: &AttributionRegistry) {
        for (shard, service) in self.shards.iter_mut().enumerate() {
            service.attach_attribution(attrib.clone(), shard);
        }
        self.attrib = Some(attrib.clone());
    }

    /// Refreshes the federation topology gauges.  `forwarding_depth` walks
    /// the whole table, so this only runs after commands that can move
    /// tenants or reshape the federation — not on the per-command hot path.
    fn refresh_topology_obs(&self) {
        let Some(obs) = &self.obs else {
            return;
        };
        obs.shards.set(self.shards.len() as f64);
        obs.forwarding_entries.set(self.forwarding.len() as f64);
        obs.forwarding_depth
            .set(sharded::forwarding_depth(&self.forwarding) as f64);
        obs.migrated.set(self.migrated);
        obs.solve_ewma.replace(
            self.solve_ewma
                .iter()
                .enumerate()
                .map(|(shard, ewma)| (vec![("shard".to_string(), shard.to_string())], *ewma))
                .collect(),
        );
    }

    /// Executes one command, routing it across the shards.
    pub fn apply(&mut self, command: Command, queue_depth: usize) -> Response {
        let reshapes = matches!(
            command,
            Command::Tick
                | Command::MigrateTenant { .. }
                | Command::Rebalance
                | Command::TenantLeave { .. }
                | Command::Restore { .. }
        );
        let response = self.dispatch(command, queue_depth);
        self.metrics
            .record_command(!matches!(response, Response::Error { .. }));
        if let Some(obs) = &self.obs {
            obs.queue_depth.set(queue_depth as f64);
            obs.uptime.set(self.started.elapsed().as_secs_f64());
            obs.trace_dropped.set(oef_trace::spans_dropped());
            obs.log_dropped.set(oef_trace::log_lines_dropped());
            if reshapes {
                self.refresh_topology_obs();
            }
        }
        response
    }

    fn dispatch(&mut self, command: Command, queue_depth: usize) -> Response {
        if self.shutting_down && !matches!(command, Command::Status | Command::Metrics) {
            return Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "daemon is shutting down".to_string(),
            };
        }
        match command {
            Command::TenantJoin { .. } => {
                let shard = self.placement.place_tenant(&self.loads());
                let response = self.shards[shard].apply(command, 0);
                retag(shard, response)
            }
            Command::AddHost { .. } => {
                let shard = self.placement.place_host(&self.loads());
                let response = self.shards[shard].apply(command, 0);
                retag(shard, response)
            }
            Command::TenantLeave { tenant } => {
                let resolved = self.resolve_handle(tenant);
                let response = self.route_resolved(resolved, ErrorCode::UnknownTenant, |local| {
                    Command::TenantLeave { tenant: local }
                });
                if matches!(response, Response::TenantLeft { .. }) {
                    // Every alias of the departed tenant is now permanently
                    // dead; dropping the edges keeps the table from growing
                    // without bound over a federation's lifetime.
                    self.purge_forwarding(resolved);
                }
                response
            }
            Command::UpdateSpeedups { tenant, speedup } => {
                self.route_by_handle(tenant, ErrorCode::UnknownTenant, move |local| {
                    Command::UpdateSpeedups {
                        tenant: local,
                        speedup,
                    }
                })
            }
            Command::SubmitJob {
                tenant,
                model,
                workers,
                total_work,
            } => self.route_by_handle(tenant, ErrorCode::UnknownTenant, move |local| {
                Command::SubmitJob {
                    tenant: local,
                    model,
                    workers,
                    total_work,
                }
            }),
            Command::JobFinished { tenant, job } => {
                self.route_by_handle(tenant, ErrorCode::UnknownTenant, move |local| {
                    Command::JobFinished { tenant: local, job }
                })
            }
            // Hosts never migrate, so host handles bypass the forwarding
            // table — they live in a different handle map than tenants, and
            // a host handle may equal a retired tenant handle bit-for-bit.
            Command::RemoveHost { handle } => {
                self.route_resolved(handle, ErrorCode::UnknownHost, |local| {
                    Command::RemoveHost { handle: local }
                })
            }
            Command::MigrateTenant { tenant, shard } => self.migrate_tenant(tenant, shard),
            Command::Rebalance => self.rebalance(),
            Command::Tick => self.tick(),
            Command::Status => self.status(),
            Command::Metrics => self.metrics_report(queue_depth),
            Command::Snapshot => self.snapshot(),
            Command::Restore { snapshot } => self.restore(&snapshot),
            Command::Shutdown => {
                for shard in &mut self.shards {
                    shard.apply(Command::Shutdown, 0);
                }
                self.shutting_down = true;
                Response::ShuttingDown
            }
        }
    }

    /// Current per-shard loads, indexed by shard.
    fn loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .map(|s| ShardLoad {
                tenants: s.tenant_handles().len(),
                hosts: s.state().topology().hosts().len(),
                total_devices: s.state().topology().total_devices(),
            })
            .collect()
    }

    /// Routes a handle-carrying command: the handle is first chased through
    /// the forwarding table (so handles retired by migrations keep working),
    /// then dispatched to the shard packed in the live handle's high bits.
    /// Replies carry the *live* handle — clients learn the one-hop route.
    fn route_by_handle(
        &mut self,
        handle: u64,
        unknown: ErrorCode,
        rebuild: impl FnOnce(u64) -> Command,
    ) -> Response {
        let resolved = self.resolve_handle(handle);
        self.route_resolved(resolved, unknown, rebuild)
    }

    /// The post-resolution half of [`ShardCoordinator::route_by_handle`].
    fn route_resolved(
        &mut self,
        resolved: u64,
        unknown: ErrorCode,
        rebuild: impl FnOnce(u64) -> Command,
    ) -> Response {
        let (shard, local) = sharded::decode(resolved);
        if shard >= self.shards.len() {
            return Response::Error {
                code: unknown,
                message: format!(
                    "handle {} names shard {shard}, but only {} shard(s) exist",
                    sharded::format(resolved),
                    self.shards.len()
                ),
            };
        }
        let response = self.shards[shard].apply(rebuild(local), 0);
        retag(shard, response)
    }

    /// Drops every forwarding edge that ends at `departed` (all chains are
    /// compressed first so edges ending at an intermediate alias are caught
    /// too).
    fn purge_forwarding(&mut self, departed: u64) {
        let keys: Vec<u64> = self.forwarding.keys().copied().collect();
        for key in keys {
            sharded::resolve_forwarded(&mut self.forwarding, key);
        }
        self.forwarding.retain(|_, target| *target != departed);
    }

    /// Moves a tenant to `target`, re-minting its handle there and recording
    /// a forwarding edge so the old handle (and every older alias) keeps
    /// routing.
    fn migrate_tenant(&mut self, handle: u64, target: usize) -> Response {
        if target >= self.shards.len() {
            return Response::Error {
                code: ErrorCode::InvalidArgument,
                message: format!(
                    "target shard {target} does not exist ({} shard(s))",
                    self.shards.len()
                ),
            };
        }
        let resolved = self.resolve_handle(handle);
        let (source, local) = sharded::decode(resolved);
        if source >= self.shards.len() {
            return Response::Error {
                code: ErrorCode::UnknownTenant,
                message: format!(
                    "handle {} names shard {source}, but only {} shard(s) exist",
                    sharded::format(resolved),
                    self.shards.len()
                ),
            };
        }
        if source == target {
            return Response::Error {
                code: ErrorCode::InvalidArgument,
                message: format!(
                    "tenant {} already lives on shard {target}",
                    sharded::format(resolved)
                ),
            };
        }
        match TenantMigrator::migrate(&mut self.shards, source, target, local) {
            Ok(new_local) => {
                let fresh = sharded::encode(target, new_local);
                self.forwarding.insert(resolved, fresh);
                self.migrated += 1;
                Response::TenantMigrated {
                    tenant: fresh,
                    previous: resolved,
                    from: source,
                    to: target,
                }
            }
            Err(failure) => {
                // A refused install rolled the tenant back under a fresh
                // handle on the source shard; forward the retired handle to
                // it so the client's handle survives even a failed move.
                if let MigrateFailure::Rejected { reinstalled, .. } = &failure {
                    if *reinstalled != 0 {
                        self.forwarding
                            .insert(resolved, sharded::encode(source, *reinstalled));
                    }
                }
                let (code, message) = failure.to_command_error();
                Response::Error { code, message }
            }
        }
    }

    /// Current per-shard load observations for the rebalancer.
    fn observe(&self) -> Vec<ShardObservation> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, service)| {
                ShardObservation::from_service(shard, service, self.solve_ewma[shard])
            })
            .collect()
    }

    /// One rebalancing pass: observe → plan → execute → report.
    fn rebalance(&mut self) -> Response {
        self.rebalance_trail.clear();
        let observations = self.observe();
        let imbalance_before = self.rebalancer.imbalance(&observations);
        let plan = self.rebalancer.plan(&observations);
        let mut moves = Vec::with_capacity(plan.moves.len());
        for planned in plan.moves {
            // The planner scores load, not quota: a planned target may be at
            // its tenant limit (admission would refuse the install).  Skip
            // such moves — a partially executed pass is still an improvement
            // and the next pass re-plans from the new state — instead of
            // aborting with an error every pass until an operator intervenes.
            if !self.shards[planned.to].has_tenant_capacity() {
                continue;
            }
            // Trail every *attempted* move, success or failure: even a
            // refused install mutates (rollback re-mint + forwarding edge),
            // so a journal must replay the attempt to reproduce the state.
            self.rebalance_trail.push((planned.tenant, planned.to));
            match self.migrate_tenant(planned.tenant, planned.to) {
                Response::TenantMigrated {
                    tenant,
                    previous,
                    from,
                    to,
                } => moves.push(ExecutedMigration {
                    previous,
                    tenant,
                    from,
                    to,
                }),
                Response::Error { code, message } => {
                    // Surface a partial pass loudly; the moves already made
                    // stand (each was individually consistent).
                    return Response::Error {
                        code,
                        message: format!(
                            "rebalance aborted after {} of its planned moves: {message}",
                            moves.len()
                        ),
                    };
                }
                other => {
                    return Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("migration returned {other:?}"),
                    };
                }
            }
        }
        let imbalance_after = self.rebalancer.imbalance(&self.observe());
        Response::Rebalanced(RebalanceReport {
            policy: self.rebalancer.policy_name().to_string(),
            imbalance_before,
            imbalance_after,
            threshold: self.rebalancer.config().threshold,
            moves,
        })
    }

    /// One federation round: every shard solves its own LP in parallel.
    fn tick(&mut self) -> Response {
        let fanout_started = Instant::now();
        // The whole fan-out is one `solve` span on the worker thread.  The
        // scoped shard threads have no recorder of their own, so the span
        // covers spawn + slowest shard, not per-shard breakdowns — the
        // per-shard split lives in the `{shard}`-labelled histograms.
        let fanout_span = oef_trace::span("solve");
        // Fan out only when threads can actually overlap: on a single
        // hardware thread the spawn/join cost is pure overhead on every
        // round, while the sharding win that remains — each shard's LP
        // staying small — needs no parallelism at all.
        let parallel = self.shards.len() > 1 && self.multi_core;
        let responses: Vec<Response> = if parallel {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .map(|shard| scope.spawn(move || shard.apply(Command::Tick, 0)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard tick thread panicked"))
                    .collect()
            })
        } else {
            self.shards
                .iter_mut()
                .map(|shard| shard.apply(Command::Tick, 0))
                .collect()
        };
        drop(fanout_span);

        let mut merged = RoundSummary {
            round: self.rounds,
            time_secs: 0.0,
            solver_time_secs: 0.0,
            warm_start: true,
            tenants: Vec::new(),
        };
        let mut solved_any = false;
        for (shard, response) in responses.into_iter().enumerate() {
            if let Response::RoundCompleted(summary) = &response {
                // Per-shard solve-latency EWMA: the load signal the
                // rebalancer watches.  Empty rounds ran no solve and must
                // not drag a busy shard's average toward zero.
                if !summary.tenants.is_empty() {
                    let previous = self.solve_ewma[shard];
                    self.solve_ewma[shard] = if previous == 0.0 {
                        summary.solver_time_secs
                    } else {
                        (1.0 - EWMA_ALPHA) * previous + EWMA_ALPHA * summary.solver_time_secs
                    };
                }
            }
            let summary = match response {
                Response::RoundCompleted(summary) => summary,
                Response::Error { code, message } => {
                    // One shard failing mid-fan-out leaves the others a round
                    // ahead; surface that loudly instead of pretending the
                    // federation ticked.
                    return Response::Error {
                        code,
                        message: format!(
                            "shard {shard} failed its round (other shards may have advanced): \
                             {message}"
                        ),
                    };
                }
                other => {
                    return Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("shard {shard} tick returned {other:?}"),
                    }
                }
            };
            merged.time_secs = merged.time_secs.max(summary.time_secs);
            // The fan-out runs shards concurrently, so the federation's solve
            // latency is the slowest shard, not the sum.
            merged.solver_time_secs = merged.solver_time_secs.max(summary.solver_time_secs);
            if !summary.tenants.is_empty() {
                solved_any = true;
                merged.warm_start &= summary.warm_start;
            }
            merged
                .tenants
                .extend(summary.tenants.into_iter().map(|t| TenantRoundSummary {
                    tenant: tag(shard, t.tenant),
                    ..t
                }));
        }
        merged.warm_start &= solved_any;
        self.rounds += 1;
        if solved_any {
            // Wall-clock of the whole fan-out (thread spawn + slowest shard's
            // solve/placement), which is what round throughput is made of.
            self.metrics
                .record_round(fanout_started.elapsed().as_secs_f64());
        }
        Response::RoundCompleted(merged)
    }

    fn status(&mut self) -> Response {
        let mut aggregate = StatusReport {
            policy: self.config.policy.clone(),
            protocol: PROTOCOL_VERSION,
            uptime_secs: self.started.elapsed().as_secs_f64(),
            round: self.rounds,
            time_secs: 0.0,
            tenants: 0,
            jobs: 0,
            hosts: 0,
            total_devices: 0,
            topology: Vec::new(),
            shards: Vec::new(),
            forwarding_entries: self.forwarding.len(),
            forwarding_depth: sharded::forwarding_depth(&self.forwarding),
        };
        for (shard, service) in self.shards.iter_mut().enumerate() {
            let Response::Status(report) = service.apply(Command::Status, 0) else {
                unreachable!("Status is infallible on a shard");
            };
            aggregate.time_secs = aggregate.time_secs.max(report.time_secs);
            aggregate.tenants += report.tenants;
            aggregate.jobs += report.jobs;
            aggregate.hosts += report.hosts;
            aggregate.total_devices += report.total_devices;
            aggregate
                .topology
                .extend(report.topology.into_iter().map(|mut h| {
                    h.host = tag(shard, h.host);
                    h
                }));
            aggregate.shards.push(ShardStatusEntry {
                shard,
                tenants: report.tenants,
                jobs: report.jobs,
                hosts: report.hosts,
                total_devices: report.total_devices,
                round: report.round,
                solve_ewma_secs: self.solve_ewma[shard],
            });
        }
        Response::Status(aggregate)
    }

    fn metrics_report(&mut self, queue_depth: usize) -> Response {
        // Command counters and the round-latency window are coordinator-level
        // (one entry per federation round, measuring the parallel fan-out);
        // solver and job counters are summed over the shards.
        let mut aggregate = MetricsReport {
            commands_processed: self.metrics.commands_processed(),
            commands_rejected: self.metrics.commands_rejected(),
            rounds_solved: self.metrics.rounds_solved(),
            jobs_completed: 0,
            warm_solves: 0,
            cold_solves: 0,
            dense_fallbacks: 0,
            basis_repairs: 0,
            churn_repairs: 0,
            refactorizations: 0,
            eta_pivots: 0,
            warm_hit_rate: 0.0,
            solve_p50_secs: self.metrics.solve_percentile(0.5),
            solve_p99_secs: self.metrics.solve_percentile(0.99),
            solve_last_secs: self.metrics.last_solve_secs(),
            queue_depth,
            tenants: 0,
            hosts: 0,
            tenants_migrated: self.migrated,
            uptime_secs: self.started.elapsed().as_secs_f64(),
            solve_ewma_secs: self.solve_ewma.clone(),
            journal_appends: 0,
            journal_fsyncs: 0,
            journal_appended_bytes: 0,
            journal_truncated_bytes_on_recovery: 0,
        };
        for service in &mut self.shards {
            let Response::Metrics(report) = service.apply(Command::Metrics, 0) else {
                unreachable!("Metrics is infallible on a shard");
            };
            aggregate.jobs_completed += report.jobs_completed;
            aggregate.warm_solves += report.warm_solves;
            aggregate.cold_solves += report.cold_solves;
            aggregate.dense_fallbacks += report.dense_fallbacks;
            aggregate.basis_repairs += report.basis_repairs;
            aggregate.churn_repairs += report.churn_repairs;
            aggregate.refactorizations += report.refactorizations;
            aggregate.eta_pivots += report.eta_pivots;
            aggregate.tenants += report.tenants;
            aggregate.hosts += report.hosts;
        }
        let total_solves = aggregate.warm_solves + aggregate.cold_solves;
        if total_solves > 0 {
            aggregate.warm_hit_rate = aggregate.warm_solves as f64 / total_solves as f64;
        }
        Response::Metrics(aggregate)
    }

    /// The federated snapshot JSON, independent of the command dispatch and
    /// its shutting-down gate: the journal wrapper checkpoints *after* a
    /// `Shutdown` has been accepted, when the wire `Snapshot` command is
    /// already refused.
    ///
    /// # Errors
    ///
    /// Serialization failures, as a message.
    pub fn snapshot_json(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write_snapshot_json(&mut out)?;
        Ok(out)
    }

    /// [`Self::snapshot_json`] into a caller's buffer (cleared first), so a
    /// caller that snapshots periodically — the journal's checkpoints — can
    /// reuse one allocation instead of growing a megabyte string each time.
    ///
    /// # Errors
    ///
    /// Serialization failures, as a message.
    pub fn write_snapshot_json(&self, out: &mut String) -> Result<(), String> {
        // Canonical encoding: the table is a hash map in memory, a sorted
        // array on disk, so identical federations write identical envelopes.
        let mut forwarding: Vec<ForwardingEntry> = self
            .forwarding
            .iter()
            .map(|(&from, &to)| ForwardingEntry { from, to })
            .collect();
        forwarding.sort_by_key(|entry| entry.from);
        let envelope = FederatedSnapshotRef {
            version: FEDERATED_SNAPSHOT_VERSION,
            round: self.rounds,
            journal_seq: self.journal_seq,
            placement: PlacementState {
                strategy: self.placement.name().to_string(),
                cursor: self.placement.cursor(),
            },
            forwarding,
            rebalancer: self.rebalancer.config(),
            // Borrowed views: each shard's state is written straight into
            // the envelope's buffer.
            shards: self
                .shards
                .iter()
                .map(oef_service::SchedulerService::snapshot_ref)
                .collect(),
        };
        out.clear();
        serde::Serialize::write_json(&envelope, out)
            .map_err(|e| format!("federated snapshot failed: {e}"))
    }

    fn snapshot(&mut self) -> Response {
        match self.snapshot_json() {
            Ok(snapshot) => Response::Snapshot { snapshot },
            Err(message) => Response::Error {
                code: ErrorCode::Internal,
                message,
            },
        }
    }

    fn restore(&mut self, snapshot: &str) -> Response {
        let parsed = match Self::parse_federated(snapshot) {
            Ok(parsed) => parsed,
            Err(e) => {
                return Response::Error {
                    code: ErrorCode::InvalidArgument,
                    message: e.to_string(),
                }
            }
        };
        let tenants = parsed.shards.iter().map(|s| s.tenant_handles().len()).sum();
        // The coordinator's metrics, migration counter and uptime describe
        // this process, not the restored state; the shard count, forwarding
        // table and rebalancer config follow the snapshot.  Like the
        // unsharded restore path, the running queue capacity stays
        // authoritative — the server's bounded queue was sized at spawn and
        // cannot be resized live.  The solve EWMA restarts cold (it is a
        // live load signal, not durable state).
        let queue_capacity = self.config.limits.queue_capacity;
        self.solve_ewma = vec![0.0; parsed.shards.len()];
        self.shards = parsed.shards;
        self.placement = parsed.placement;
        self.rounds = parsed.rounds;
        self.config = parsed.config;
        self.forwarding = parsed.forwarding;
        self.rebalancer = parsed.rebalancer;
        self.journal_seq = parsed.journal_seq;
        self.config.limits.queue_capacity = queue_capacity;
        // Restore rebuilt every shard with fresh metric cells; re-attach
        // them so the exposition endpoint reads the live shards again (the
        // registry replaces the stale handles in place).
        if let Some(obs) = &self.obs {
            let registry = obs.registry.clone();
            for (shard, service) in self.shards.iter_mut().enumerate() {
                service.attach_shard_observability(&registry, shard);
            }
        }
        // Restore rebuilt the shards without their attribution handle;
        // re-attach it and fold cost history of handles the restored
        // population no longer contains (union across all shards — any
        // shard may own any handle).
        if let Some(attrib) = self.attrib.clone() {
            let live: Vec<u64> = self
                .shards
                .iter()
                .enumerate()
                .flat_map(|(shard, s)| s.tenant_handles().iter().map(move |&h| tag(shard, h)))
                .collect();
            attrib.retain(&live);
            for (shard, service) in self.shards.iter_mut().enumerate() {
                service.attach_attribution(attrib.clone(), shard);
            }
        }
        Response::Restored { tenants }
    }
}

impl CommandHandler for ShardCoordinator {
    fn apply(&mut self, command: Command, queue_depth: usize) -> Response {
        ShardCoordinator::apply(self, command, queue_depth)
    }

    fn queue_capacity(&self) -> usize {
        self.config.limits.queue_capacity
    }

    fn attach_observability(&mut self, registry: &Registry) {
        ShardCoordinator::attach_observability(self, registry);
    }

    fn attach_attribution(&mut self, attrib: &AttributionRegistry) {
        ShardCoordinator::attach_attribution(self, attrib);
    }
}

/// Tags a shard-local handle for the wire; the null handle stays null.
fn tag(shard: usize, handle: u64) -> u64 {
    if handle == 0 {
        0
    } else {
        sharded::encode(shard, handle)
    }
}

/// Rewrites every handle a shard reply carries into its shard-tagged wire
/// form.  Replies without handles (including errors) pass through untouched.
fn retag(shard: usize, response: Response) -> Response {
    match response {
        Response::TenantJoined { tenant } => Response::TenantJoined {
            tenant: tag(shard, tenant),
        },
        Response::TenantLeft { tenant } => Response::TenantLeft {
            tenant: tag(shard, tenant),
        },
        Response::SpeedupsUpdated { tenant } => Response::SpeedupsUpdated {
            tenant: tag(shard, tenant),
        },
        Response::JobSubmitted { tenant, job } => Response::JobSubmitted {
            tenant: tag(shard, tenant),
            job,
        },
        Response::JobFinished { tenant, job } => Response::JobFinished {
            tenant: tag(shard, tenant),
            job,
        },
        Response::HostAdded { host } => Response::HostAdded {
            host: tag(shard, host),
        },
        Response::HostRemoved { host } => Response::HostRemoved {
            host: tag(shard, host),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{placement_from_name, RoundRobin};

    fn coordinator(shards: usize) -> ShardCoordinator {
        ShardCoordinator::new(
            (0..shards)
                .map(|_| ClusterTopology::paper_cluster())
                .collect(),
            ServiceConfig::default(),
            placement_from_name("least-loaded").unwrap(),
        )
        .unwrap()
    }

    fn join(c: &mut ShardCoordinator, name: &str) -> u64 {
        match c.apply(
            Command::TenantJoin {
                name: name.into(),
                weight: 1,
                speedup: vec![1.0, 1.2, 1.4],
            },
            0,
        ) {
            Response::TenantJoined { tenant } => tenant,
            other => panic!("join failed: {other:?}"),
        }
    }

    #[test]
    fn least_loaded_spreads_tenants_and_tags_handles() {
        let mut c = coordinator(3);
        let handles: Vec<u64> = (0..6).map(|i| join(&mut c, &format!("t{i}"))).collect();
        let mut per_shard = [0usize; 3];
        for &h in &handles {
            per_shard[sharded::shard_of(h)] += 1;
        }
        assert_eq!(per_shard, [2, 2, 2], "least-loaded balances the join order");
        // Handles are unique on the wire even though each shard minted 1, 2.
        let mut unique = handles.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), handles.len());
    }

    #[test]
    fn handle_routing_reaches_the_minting_shard() {
        let mut c = coordinator(2);
        let a = join(&mut c, "alice");
        let b = join(&mut c, "bob");
        assert_ne!(sharded::shard_of(a), sharded::shard_of(b));
        let r = c.apply(
            Command::SubmitJob {
                tenant: b,
                model: "m".into(),
                workers: 1,
                total_work: 1e6,
            },
            0,
        );
        assert!(
            matches!(r, Response::JobSubmitted { tenant, .. } if tenant == b),
            "{r:?}"
        );
        let r = c.apply(Command::TenantLeave { tenant: a }, 0);
        assert!(matches!(r, Response::TenantLeft { tenant } if tenant == a));
        // A handle naming a shard that does not exist is UnknownTenant, not a
        // panic or a mis-route.
        let bogus = sharded::encode(7, 1);
        let r = c.apply(Command::TenantLeave { tenant: bogus }, 0);
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
    }

    #[test]
    fn parallel_tick_merges_all_shards() {
        let mut c = coordinator(2);
        let handles: Vec<u64> = (0..4).map(|i| join(&mut c, &format!("t{i}"))).collect();
        for &h in &handles {
            c.apply(
                Command::SubmitJob {
                    tenant: h,
                    model: "m".into(),
                    workers: 1,
                    total_work: 1e9,
                },
                0,
            );
        }
        let Response::RoundCompleted(round) = c.apply(Command::Tick, 0) else {
            panic!("tick failed");
        };
        assert_eq!(round.round, 0);
        assert_eq!(round.tenants.len(), 4, "both shards' tenants are merged");
        for t in &round.tenants {
            assert!(handles.contains(&t.tenant), "summary keys by wire handle");
            assert!(t.devices_held > 0);
        }
        assert_eq!(c.rounds_run(), 1);
    }

    #[test]
    fn status_and_metrics_aggregate_across_shards() {
        let mut c = coordinator(2);
        let t = join(&mut c, "alice");
        join(&mut c, "bob");
        c.apply(
            Command::SubmitJob {
                tenant: t,
                model: "m".into(),
                workers: 1,
                total_work: 1e9,
            },
            0,
        );
        c.apply(Command::Tick, 0);
        let Response::Status(status) = c.apply(Command::Status, 0) else {
            panic!("status failed");
        };
        assert_eq!(status.tenants, 2);
        assert_eq!(status.hosts, 12);
        assert_eq!(status.total_devices, 48);
        assert_eq!(status.shards.len(), 2);
        assert_eq!(status.shards.iter().map(|s| s.tenants).sum::<usize>(), 2);
        assert_eq!(status.round, 1);
        assert!(status.uptime_secs >= 0.0);
        // Topology handles carry their shard index.
        let shard_ids: std::collections::HashSet<usize> = status
            .topology
            .iter()
            .map(|h| sharded::shard_of(h.host))
            .collect();
        assert_eq!(shard_ids.len(), 2);

        let Response::Metrics(m) = c.apply(Command::Metrics, 0) else {
            panic!("metrics failed");
        };
        assert_eq!(m.tenants, 2);
        assert_eq!(m.hosts, 12);
        assert_eq!(m.rounds_solved, 1);
        assert!(m.cold_solves >= 1, "first round is a cold solve");
    }

    #[test]
    fn round_robin_cursor_survives_the_snapshot() {
        let mut c = ShardCoordinator::new(
            vec![
                ClusterTopology::paper_cluster(),
                ClusterTopology::paper_cluster(),
            ],
            ServiceConfig::default(),
            Box::<RoundRobin>::default(),
        )
        .unwrap();
        let first = join(&mut c, "a");
        let Response::Snapshot { snapshot } = c.apply(Command::Snapshot, 0) else {
            panic!("snapshot failed");
        };
        let mut restored = ShardCoordinator::from_federated_json(&snapshot).unwrap();
        // Both the original and the restored coordinator must place the next
        // tenant on the *same* shard (the cursor traveled with the envelope).
        let from_original = join(&mut c, "b");
        let from_restored = join(&mut restored, "b");
        assert_eq!(from_original, from_restored);
        assert_ne!(sharded::shard_of(first), sharded::shard_of(from_original));
    }

    #[test]
    fn every_other_version_is_refused_by_one_arm() {
        let mut c = coordinator(2);
        let Response::Snapshot { snapshot } = c.apply(Command::Snapshot, 0) else {
            panic!("snapshot failed");
        };
        let refusal = |json: &str| match ShardCoordinator::from_federated_json(json) {
            Err(ServiceError::BadSnapshot(reason)) => reason,
            other => panic!("expected BadSnapshot, got {other:?}"),
        };
        // A bare shard snapshot (version 2) is as foreign as an envelope of
        // any other vintage: the version found, the version supported.
        let bare = c.shards()[0].snapshot_json().unwrap();
        assert_eq!(
            refusal(&bare),
            "federated snapshot version 2 is not supported (coordinator supports 5)"
        );
        for other in [0u64, 3, 4, 6] {
            let edited = snapshot.replacen("\"version\":5", &format!("\"version\":{other}"), 1);
            assert_ne!(edited, snapshot, "fixture must actually change the version");
            assert_eq!(
                refusal(&edited),
                format!(
                    "federated snapshot version {other} is not supported (coordinator supports 5)"
                )
            );
        }
        let text = snapshot.replacen("\"version\":5", "\"version\":\"5\"", 1);
        assert!(refusal(&text).contains("no numeric `version` field"));
        // The wire command takes the same arm.
        let r = c.apply(Command::Restore { snapshot: bare }, 0);
        assert!(
            matches!(
                &r,
                Response::Error { code: ErrorCode::InvalidArgument, message }
                    if message.contains("version 2 is not supported")
            ),
            "{r:?}"
        );
    }

    fn submit(c: &mut ShardCoordinator, tenant: u64) -> u64 {
        match c.apply(
            Command::SubmitJob {
                tenant,
                model: "m".into(),
                workers: 1,
                total_work: 1e9,
            },
            0,
        ) {
            Response::JobSubmitted { job, .. } => job,
            other => panic!("submit failed: {other:?}"),
        }
    }

    #[test]
    fn migrate_reminta_handle_and_forwards_the_old_one() {
        let mut c = coordinator(2);
        let alice = join(&mut c, "alice");
        let bob = join(&mut c, "bob");
        let job = submit(&mut c, alice);
        let source = sharded::shard_of(alice);
        let target = 1 - source;

        let Response::TenantMigrated {
            tenant: fresh,
            previous,
            from,
            to,
        } = c.apply(
            Command::MigrateTenant {
                tenant: alice,
                shard: target,
            },
            0,
        )
        else {
            panic!("migrate failed");
        };
        assert_eq!((previous, from, to), (alice, source, target));
        assert_eq!(sharded::shard_of(fresh), target);
        assert_eq!(c.forwarding_entries(), 1);
        assert_eq!(c.tenants_migrated(), 1);

        // The old handle still works for every handle-carrying command, and
        // replies teach the caller the live handle.
        let r = c.apply(
            Command::UpdateSpeedups {
                tenant: alice,
                speedup: vec![1.0, 1.3, 1.5],
            },
            0,
        );
        assert!(
            matches!(r, Response::SpeedupsUpdated { tenant } if tenant == fresh),
            "{r:?}"
        );
        // The pre-migration job id still resolves through the old handle.
        let r = c.apply(Command::JobFinished { tenant: alice, job }, 0);
        assert!(
            matches!(r, Response::JobFinished { tenant, .. } if tenant == fresh),
            "{r:?}"
        );

        // A second hop: migrate back; the chain compresses on lookup.
        let Response::TenantMigrated { tenant: back, .. } = c.apply(
            Command::MigrateTenant {
                tenant: alice,
                shard: source,
            },
            0,
        ) else {
            panic!("second migrate failed");
        };
        assert_eq!(c.forwarding_entries(), 2);
        assert_eq!(c.resolve_handle(alice), back);
        assert_eq!(c.forwarding_depth(), 1, "lookup compressed the chain");

        // Status surfaces the table; bob is untouched.
        let Response::Status(status) = c.apply(Command::Status, 0) else {
            panic!("status failed");
        };
        assert_eq!(status.forwarding_entries, 2);
        assert_eq!(status.tenants, 2);

        // Leaving through the *oldest* alias retires the whole chain.
        let r = c.apply(Command::TenantLeave { tenant: alice }, 0);
        assert!(matches!(r, Response::TenantLeft { .. }), "{r:?}");
        assert_eq!(c.forwarding_entries(), 0, "leave purges dead aliases");
        let r = c.apply(Command::TenantLeave { tenant: alice }, 0);
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
        let r = c.apply(Command::TenantLeave { tenant: bob }, 0);
        assert!(matches!(r, Response::TenantLeft { .. }), "{r:?}");
    }

    #[test]
    fn migrate_rejects_bad_shards_and_self_moves() {
        let mut c = coordinator(2);
        let alice = join(&mut c, "alice");
        let r = c.apply(
            Command::MigrateTenant {
                tenant: alice,
                shard: 7,
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
        let r = c.apply(
            Command::MigrateTenant {
                tenant: alice,
                shard: sharded::shard_of(alice),
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
            "self-move: {r:?}"
        );
        let r = c.apply(
            Command::MigrateTenant {
                tenant: 999,
                shard: 1,
            },
            0,
        );
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
        assert_eq!(c.forwarding_entries(), 0);
    }

    #[test]
    fn host_handles_bypass_tenant_forwarding() {
        let mut c = coordinator(2);
        let alice = join(&mut c, "alice");
        assert_eq!(alice, 1, "first tenant handle is 1 on shard 0");
        let r = c.apply(
            Command::MigrateTenant {
                tenant: alice,
                shard: 1,
            },
            0,
        );
        assert!(matches!(r, Response::TenantMigrated { .. }), "{r:?}");
        // The forwarding table now maps the *tenant* handle 1.  Host handle 1
        // (shard 0's first paper-cluster host) is a different object that
        // happens to share the bits — removing it must hit the host, not
        // chase the tenant alias onto the wrong shard.
        let r = c.apply(Command::RemoveHost { handle: 1 }, 0);
        assert!(
            matches!(r, Response::HostRemoved { host: 1 }),
            "host handle must not resolve through tenant forwarding: {r:?}"
        );
    }

    #[test]
    fn rebalance_flattens_a_skewed_federation() {
        let mut c = coordinator(2);
        let handles: Vec<u64> = (0..6).map(|i| join(&mut c, &format!("t{i}"))).collect();
        // Drain shard 0: the tenants that landed there leave, stranding all
        // remaining load on shard 1 — exactly the imbalance uneven churn
        // produces under least-loaded placement.
        for &h in handles.iter().filter(|&&h| sharded::shard_of(h) == 0) {
            c.apply(Command::TenantLeave { tenant: h }, 0);
        }
        let Response::Rebalanced(report) = c.apply(Command::Rebalance, 0) else {
            panic!("rebalance failed");
        };
        assert_eq!(report.policy, "threshold");
        assert!(report.imbalance_before > report.threshold);
        assert!(
            report.imbalance_after <= report.threshold,
            "spread {} should be within {}",
            report.imbalance_after,
            report.threshold
        );
        assert!(!report.moves.is_empty());
        for m in &report.moves {
            assert_eq!((m.from, m.to), (1, 0));
            // Moved tenants' old handles forward to their new ones.
            assert_eq!(c.resolve_handle(m.previous), m.tenant);
        }
        // A second pass plans nothing — no oscillation.
        let Response::Rebalanced(again) = c.apply(Command::Rebalance, 0) else {
            panic!("rebalance failed");
        };
        assert!(again.moves.is_empty(), "{again:?}");
    }

    #[test]
    fn rebalance_skips_full_targets_instead_of_aborting() {
        use oef_service::ServiceLimits;
        let mut c = ShardCoordinator::new(
            vec![
                ClusterTopology::paper_cluster(),
                ClusterTopology::paper_cluster(),
            ],
            ServiceConfig {
                limits: ServiceLimits {
                    max_tenants: 3,
                    ..ServiceLimits::default()
                },
                ..ServiceConfig::default()
            },
            placement_from_name("least-loaded").unwrap(),
        )
        .unwrap();
        // Both shards at their tenant quota; shard 1 heavily job-loaded, so
        // the weighted spread exceeds the threshold but every planned move
        // targets a full shard.
        let handles: Vec<u64> = (0..6).map(|i| join(&mut c, &format!("t{i}"))).collect();
        for &h in handles.iter().filter(|&&h| sharded::shard_of(h) == 1) {
            for _ in 0..5 {
                submit(&mut c, h);
            }
        }
        let Response::Rebalanced(report) = c.apply(Command::Rebalance, 0) else {
            panic!("a quota-blocked pass must still reply Rebalanced");
        };
        assert!(report.imbalance_before > report.threshold, "{report:?}");
        assert!(report.moves.is_empty(), "{report:?}");
        assert_eq!(c.tenants_migrated(), 0);
    }

    #[test]
    fn forwarding_and_rebalancer_survive_the_snapshot() {
        let mut c = coordinator(2);
        let alice = join(&mut c, "alice");
        join(&mut c, "bob");
        let job = submit(&mut c, alice);
        let target = 1 - sharded::shard_of(alice);
        let Response::TenantMigrated { tenant: fresh, .. } = c.apply(
            Command::MigrateTenant {
                tenant: alice,
                shard: target,
            },
            0,
        ) else {
            panic!("migrate failed");
        };
        let Response::Snapshot { snapshot } = c.apply(Command::Snapshot, 0) else {
            panic!("snapshot failed");
        };
        let mut restored = ShardCoordinator::from_federated_json(&snapshot).unwrap();
        assert_eq!(restored.forwarding_entries(), 1);
        assert_eq!(restored.resolve_handle(alice), fresh);
        assert_eq!(
            restored.rebalancer_config(),
            c.rebalancer_config(),
            "rebalancer config rides in the envelope"
        );
        // The pre-migration handle and job id keep working after restore.
        let r = restored.apply(Command::JobFinished { tenant: alice, job }, 0);
        assert!(
            matches!(r, Response::JobFinished { tenant, .. } if tenant == fresh),
            "{r:?}"
        );

        // A corrupted (cyclic) forwarding table is refused, not chased.
        let cyclic = snapshot.replace(
            &format!("\"forwarding\":[{{\"from\":{alice},\"to\":{fresh}}}]"),
            &format!(
                "\"forwarding\":[{{\"from\":{alice},\"to\":{fresh}}},\
                 {{\"from\":{fresh},\"to\":{alice}}}]"
            ),
        );
        assert_ne!(cyclic, snapshot, "fixture must actually corrupt");
        let err = ShardCoordinator::from_federated_json(&cyclic).unwrap_err();
        let ServiceError::BadSnapshot(reason) = err else {
            panic!("expected BadSnapshot");
        };
        assert!(reason.contains("cycle"), "reason: {reason}");
    }

    #[test]
    fn rebalance_trail_records_attempted_moves() {
        let mut c = coordinator(2);
        let handles: Vec<u64> = (0..6).map(|i| join(&mut c, &format!("t{i}"))).collect();
        for &h in handles.iter().filter(|&&h| sharded::shard_of(h) == 0) {
            c.apply(Command::TenantLeave { tenant: h }, 0);
        }
        let Response::Rebalanced(report) = c.apply(Command::Rebalance, 0) else {
            panic!("rebalance failed");
        };
        assert!(!report.moves.is_empty());
        let trail = c.drain_rebalance_trail();
        assert_eq!(
            trail,
            report
                .moves
                .iter()
                .map(|m| (m.previous, m.to))
                .collect::<Vec<_>>(),
            "trail lists each attempt by its pre-move wire handle"
        );
        assert!(
            c.drain_rebalance_trail().is_empty(),
            "draining is destructive"
        );
        // Replaying the trail as MigrateTenant commands on a twin reproduces
        // the exact same moves — the journal's recovery path.
        let mut twin = coordinator(2);
        let twin_handles: Vec<u64> = (0..6).map(|i| join(&mut twin, &format!("t{i}"))).collect();
        assert_eq!(twin_handles, handles);
        for &h in twin_handles.iter().filter(|&&h| sharded::shard_of(h) == 0) {
            twin.apply(Command::TenantLeave { tenant: h }, 0);
        }
        for &(tenant, shard) in &trail {
            let r = twin.apply(Command::MigrateTenant { tenant, shard }, 0);
            assert!(matches!(r, Response::TenantMigrated { .. }), "{r:?}");
        }
        for (a, b) in c.shards().iter().zip(twin.shards()) {
            assert_eq!(a.tenant_handles(), b.tenant_handles());
        }
    }

    #[test]
    fn journal_seq_rides_in_the_snapshot() {
        let mut c = coordinator(2);
        join(&mut c, "alice");
        c.set_journal_seq(41);
        let Response::Snapshot { snapshot } = c.apply(Command::Snapshot, 0) else {
            panic!("snapshot failed");
        };
        assert!(snapshot.contains("\"journal_seq\":41"), "{snapshot}");
        let restored = ShardCoordinator::from_federated_json(&snapshot).unwrap();
        assert_eq!(restored.journal_seq(), 41);
    }

    #[test]
    fn shutdown_blocks_mutations_but_not_probes() {
        let mut c = coordinator(2);
        assert!(matches!(
            c.apply(Command::Shutdown, 0),
            Response::ShuttingDown
        ));
        assert!(c.is_shutting_down());
        let r = c.apply(Command::Tick, 0);
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ));
        assert!(matches!(c.apply(Command::Status, 0), Response::Status(_)));
    }
}
