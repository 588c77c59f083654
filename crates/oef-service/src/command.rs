//! Wire-level command and response types of the scheduling daemon.
//!
//! Every message is one line of JSON (externally tagged enums, as the serde
//! shim's derive produces them).  A client sends a [`Request`] — an `id` it
//! chooses plus a [`Command`] — and receives exactly one [`Reply`] echoing the
//! `id`.  Errors are ordinary replies carrying [`Response::Error`] with a
//! machine-readable [`ErrorCode`], so a client never has to parse free-form
//! text to branch.

use serde::{Deserialize, Serialize};

/// Wire protocol version.  v2 replaced the dense host ids of v1 with stable
/// generational host handles: `AddHost` returns a handle that survives any
/// later topology churn, `RemoveHost` takes one, and a removed host's handle
/// never aliases a newer host.
pub const PROTOCOL_VERSION: u32 = 2;

/// Wire protocol minor revision.  v2.1 added the *optional* `trace` field on
/// [`Request`] and the optional `trace_id` echo on [`Reply`]; both are
/// strictly additive — a request without `trace` is a byte-for-byte v2.0
/// request, a v2.0 peer ignores the unknown fields — so minor revisions
/// never gate interop.
pub const PROTOCOL_MINOR: u32 = 1;

/// Trace context a request optionally carries (protocol v2.1): the client's
/// trace id, its span, and whether it asks the daemon to record the command.
/// Ids are 16-lowercase-hex-digit strings on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTraceContext {
    /// Trace id, 16 lowercase hex digits.
    pub trace_id: String,
    /// The caller's span id, hex ("0" = the caller is the root).
    pub parent_span: String,
    /// Whether the daemon should record this command regardless of its own
    /// 1-in-N sampling.
    pub sampled: bool,
}

impl WireTraceContext {
    /// Converts the wire form to the in-process context.  Unparsable hex ids
    /// degrade to id 0 (the daemon then mints a fresh id) rather than
    /// rejecting the command — tracing must never fail a request.
    pub fn to_context(&self) -> oef_trace::TraceContext {
        oef_trace::TraceContext {
            trace_id: oef_trace::parse_id(&self.trace_id).unwrap_or(0),
            parent_span: oef_trace::parse_id(&self.parent_span).unwrap_or(0),
            sampled: self.sampled,
        }
    }

    /// The wire form of an in-process context.
    pub fn from_context(ctx: oef_trace::TraceContext) -> Self {
        Self {
            trace_id: oef_trace::format_id(ctx.trace_id),
            parent_span: oef_trace::format_id(ctx.parent_span),
            sampled: ctx.sampled,
        }
    }
}

/// A command a tenant (or an operator) sends to the scheduling daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Registers a tenant with its reported speedup profile (one entry per
    /// GPU type, slowest first, first entry 1.0).  Replies with
    /// [`Response::TenantJoined`] carrying the stable tenant handle used by
    /// every other command.
    TenantJoin {
        /// Human-readable tenant name.
        name: String,
        /// Priority weight (≥ 1).
        weight: u32,
        /// Reported speedup profile across GPU types.
        speedup: Vec<f64>,
    },
    /// Deregisters a tenant; its unfinished jobs leave the cluster with it.
    TenantLeave {
        /// Tenant handle from [`Response::TenantJoined`].
        tenant: u64,
    },
    /// Replaces a tenant's reported speedup profile.
    UpdateSpeedups {
        /// Tenant handle.
        tenant: u64,
        /// New speedup profile across GPU types.
        speedup: Vec<f64>,
    },
    /// Submits a job for a tenant; the job becomes runnable at the current
    /// service time and trains with the tenant's reported profile.
    SubmitJob {
        /// Tenant handle.
        tenant: u64,
        /// Model name (free-form, for reports).
        model: String,
        /// Number of GPU workers the job wants simultaneously.
        workers: usize,
        /// Total work in slow-GPU seconds.
        total_work: f64,
    },
    /// Force-finishes a job (tenant-side cancellation / external completion).
    JobFinished {
        /// Tenant handle.
        tenant: u64,
        /// Job id from [`Response::JobSubmitted`].
        job: u64,
    },
    /// Adds a host with `num_gpus` devices of an existing GPU type.  Replies
    /// with [`Response::HostAdded`] carrying the host's *stable handle*.
    AddHost {
        /// GPU type index (slowest first, as in the topology).
        gpu_type: usize,
        /// Devices on the new host.
        num_gpus: usize,
    },
    /// Drains and removes a host by stable handle.
    ///
    /// Since protocol v2, removing a host never renumbers the survivors:
    /// every other handle a client holds stays valid, and the removed handle
    /// is dead forever — later `RemoveHost` calls on it return
    /// [`ErrorCode::UnknownHost`] instead of silently hitting a different
    /// host.  The payload field is named `handle` (v1 used `host` for a
    /// dense id) so an un-upgraded v1 client fails loudly with a structured
    /// parse error instead of silently removing the wrong host.
    RemoveHost {
        /// Stable host handle from [`Response::HostAdded`] or
        /// [`Command::Status`].
        handle: u64,
    },
    /// Moves a tenant — its profile, unfinished jobs, quota usage and
    /// rounding-deviation state — onto another shard of a federation.  The
    /// reply carries the tenant's re-minted handle; the old handle keeps
    /// working forever through the coordinator's forwarding table.  A bare
    /// shard core rejects this with [`ErrorCode::InvalidArgument`].
    MigrateTenant {
        /// Tenant handle (any handle ever issued for the tenant).
        tenant: u64,
        /// Target shard index.
        shard: usize,
    },
    /// Runs one rebalancing pass: the coordinator scores per-shard load,
    /// plans migrations against its configured policy, executes them and
    /// replies with the plan it executed ([`Response::Rebalanced`]).  A bare
    /// shard core rejects this with [`ErrorCode::InvalidArgument`].
    Rebalance,
    /// Runs one scheduling round: re-solves the allocation (warm-started),
    /// places devices and advances jobs by one round.
    Tick,
    /// Reads the metrics registry.
    Metrics,
    /// Serializes the full service state; the reply carries the snapshot JSON.
    Snapshot,
    /// Replaces the full service state with a previously taken snapshot.
    Restore {
        /// Snapshot JSON as produced by [`Command::Snapshot`].
        snapshot: String,
    },
    /// Lightweight liveness / state summary probe.
    Status,
    /// Stops the daemon after replying.
    Shutdown,
}

impl Command {
    /// The command's variant name — used as the root span label when the
    /// command is traced, and in structured log lines.
    pub fn name(&self) -> &'static str {
        match self {
            Command::TenantJoin { .. } => "TenantJoin",
            Command::TenantLeave { .. } => "TenantLeave",
            Command::UpdateSpeedups { .. } => "UpdateSpeedups",
            Command::SubmitJob { .. } => "SubmitJob",
            Command::JobFinished { .. } => "JobFinished",
            Command::AddHost { .. } => "AddHost",
            Command::RemoveHost { .. } => "RemoveHost",
            Command::MigrateTenant { .. } => "MigrateTenant",
            Command::Rebalance => "Rebalance",
            Command::Tick => "Tick",
            Command::Metrics => "Metrics",
            Command::Snapshot => "Snapshot",
            Command::Restore { .. } => "Restore",
            Command::Status => "Status",
            Command::Shutdown => "Shutdown",
        }
    }
}

/// Machine-readable error category of a rejected command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// An admission-control limit (tenants, jobs per tenant, hosts) was hit.
    QuotaExceeded,
    /// The tenant handle is not registered.
    UnknownTenant,
    /// The job id does not belong to the tenant.
    UnknownJob,
    /// The host id does not exist.
    UnknownHost,
    /// The command payload failed validation.
    InvalidArgument,
    /// The bounded command queue was full (backpressure); retry later.
    Busy,
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown,
    /// An internal failure (solver error, serialization failure).
    Internal,
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Per-tenant outcome of one scheduling round, keyed by stable handle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantRoundSummary {
    /// Stable tenant handle.
    pub tenant: u64,
    /// Throughput the fair-share evaluator promised this round.
    pub estimated_throughput: f64,
    /// Throughput actually delivered after placement and runtime effects.
    pub actual_throughput: f64,
    /// Whole devices held this round.
    pub devices_held: usize,
    /// Fractional allocation per GPU type.
    pub gpu_shares: Vec<f64>,
}

/// Outcome of a [`Command::Tick`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundSummary {
    /// Round index (0-based, monotone across the daemon's lifetime).
    pub round: usize,
    /// Service time at the start of the round, in seconds.
    pub time_secs: f64,
    /// Wall-clock time the fair-share evaluator took, in seconds.
    pub solver_time_secs: f64,
    /// Whether the LP solve warm-started from the previous round's basis.
    pub warm_start: bool,
    /// Per-tenant outcomes (active tenants only).
    pub tenants: Vec<TenantRoundSummary>,
}

/// Metrics registry export (see [`Command::Metrics`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Commands accepted and executed (including ticks).
    pub commands_processed: u64,
    /// Commands rejected by validation or admission control.
    pub commands_rejected: u64,
    /// Scheduling rounds solved since start (empty rounds excluded).
    pub rounds_solved: u64,
    /// Jobs completed and pruned from the live state since start.
    pub jobs_completed: u64,
    /// LP solves served from a cached basis (policy-wide, includes probes).
    pub warm_solves: u64,
    /// LP solves that ran from scratch.
    pub cold_solves: u64,
    /// Cold solves that additionally fell back to the dense reference solver.
    pub dense_fallbacks: u64,
    /// Warm solves that needed dual-simplex repair pivots before phase 2.
    pub basis_repairs: u64,
    /// Warm solves served by remapping a cached basis across tenant churn.
    pub churn_repairs: u64,
    /// Sparse LU refactorizations (eta-file resets) across all solves.
    pub refactorizations: u64,
    /// Simplex pivots applied as eta-file updates rather than refactorizing.
    pub eta_pivots: u64,
    /// `warm_solves / (warm_solves + cold_solves)`, 0 when no solve ran.
    pub warm_hit_rate: f64,
    /// Median per-round solve latency over the recent-latency window, seconds.
    pub solve_p50_secs: f64,
    /// 99th-percentile per-round solve latency over the window, seconds.
    pub solve_p99_secs: f64,
    /// Latency of the most recent round's solve, seconds.
    pub solve_last_secs: f64,
    /// Commands waiting in the bounded queue when the report was taken.
    pub queue_depth: usize,
    /// Tenants currently registered.
    pub tenants: usize,
    /// Hosts currently in the topology.
    pub hosts: usize,
    /// Tenants moved between shards since start (0 from a bare shard core).
    pub tenants_migrated: u64,
    /// Seconds since the daemon started (parity with `Status`).
    pub uptime_secs: f64,
    /// Per-shard EWMA of recent solve latencies, seconds (parity with
    /// `Status --shards`; empty from a bare shard core).
    pub solve_ewma_secs: Vec<f64>,
    /// Journal records appended since start (0 when not journaled).
    pub journal_appends: u64,
    /// Journal fsync batches issued since start (0 when not journaled).
    pub journal_fsyncs: u64,
    /// Journal bytes appended (headers + payloads; 0 when not journaled).
    pub journal_appended_bytes: u64,
    /// Torn/corrupt bytes truncated from the journal tail during the most
    /// recent recovery (0 when not journaled or cleanly started).
    pub journal_truncated_bytes_on_recovery: u64,
}

/// One host as reported by [`Command::Status`]: its stable handle plus what
/// it contains, so operators can reference topology at a glance without a
/// separate inventory call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostStatusEntry {
    /// Stable host handle (use with [`Command::RemoveHost`]).
    pub host: u64,
    /// GPU type index of the host's devices.
    pub gpu_type: usize,
    /// Device count on the host.
    pub num_gpus: usize,
}

/// One scheduler shard as reported by [`Command::Status`] on a sharded
/// daemon.  Unsharded daemons report an empty `shards` list; a federation
/// coordinator reports one entry per shard so operators can see how tenants
/// and capacity are spread without decoding handles by hand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStatusEntry {
    /// Shard index (the high bits of every handle this shard minted).
    pub shard: usize,
    /// Tenants registered on this shard.
    pub tenants: usize,
    /// Unfinished jobs on this shard.
    pub jobs: usize,
    /// Hosts owned by this shard.
    pub hosts: usize,
    /// GPU devices owned by this shard.
    pub total_devices: usize,
    /// Rounds this shard has completed.
    pub round: usize,
    /// Exponentially weighted moving average of the shard's per-round solve
    /// latency, in seconds — the load signal the rebalancer watches alongside
    /// tenant and job counts.
    pub solve_ewma_secs: f64,
}

/// One executed tenant move inside a [`RebalanceReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutedMigration {
    /// The handle the tenant held before the move (still usable: it forwards).
    pub previous: u64,
    /// The handle minted on the target shard.
    pub tenant: u64,
    /// Source shard.
    pub from: usize,
    /// Target shard.
    pub to: usize,
}

/// Outcome of a [`Command::Rebalance`] pass: the plan the coordinator
/// actually executed, plus the load imbalance it observed before and after.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebalanceReport {
    /// Rebalance policy that produced the plan.
    pub policy: String,
    /// Load-score spread (most-loaded minus least-loaded shard) before.
    pub imbalance_before: f64,
    /// Load-score spread after the executed moves.
    pub imbalance_after: f64,
    /// The spread the policy tries to stay within.
    pub threshold: f64,
    /// Executed moves, in order.
    pub moves: Vec<ExecutedMigration>,
}

/// State summary returned by [`Command::Status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Allocation policy driving the daemon.
    pub policy: String,
    /// Wire protocol version the daemon speaks ([`PROTOCOL_VERSION`]).
    pub protocol: u32,
    /// Seconds this daemon process has been serving.
    pub uptime_secs: f64,
    /// Rounds completed so far.
    pub round: usize,
    /// Current service time in seconds.
    pub time_secs: f64,
    /// Registered tenants.
    pub tenants: usize,
    /// Unfinished jobs across all tenants.
    pub jobs: usize,
    /// Hosts in the topology.
    pub hosts: usize,
    /// Total GPU devices in the topology.
    pub total_devices: usize,
    /// Per-host handles and contents, in topology order (shard-tagged by
    /// the coordinator).
    pub topology: Vec<HostStatusEntry>,
    /// Per-shard summaries, one per shard of the daemon (empty from a bare
    /// shard core).
    pub shards: Vec<ShardStatusEntry>,
    /// Entries in the coordinator's handle-forwarding table:
    /// one per handle that was re-minted by a migration and not yet retired
    /// by its tenant leaving.
    pub forwarding_entries: usize,
    /// Longest forwarding chain (lookups compress paths, so this hovers at
    /// 1; 0 when no tenant ever migrated).
    pub forwarding_depth: usize,
}

/// Reply payload for a [`Command`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Tenant registered; `tenant` is the stable handle for all later calls.
    TenantJoined {
        /// Stable tenant handle.
        tenant: u64,
    },
    /// Tenant deregistered.
    TenantLeft {
        /// The departed tenant's handle.
        tenant: u64,
    },
    /// Speedup profile replaced.
    SpeedupsUpdated {
        /// Tenant handle.
        tenant: u64,
    },
    /// Job accepted.
    JobSubmitted {
        /// Tenant handle.
        tenant: u64,
        /// Job id for [`Command::JobFinished`].
        job: u64,
    },
    /// Job force-finished.
    JobFinished {
        /// Tenant handle.
        tenant: u64,
        /// Job id.
        job: u64,
    },
    /// Host added.
    HostAdded {
        /// The new host's stable handle.
        host: u64,
    },
    /// Host removed; the handle is dead from here on.
    HostRemoved {
        /// The removed host's handle.
        host: u64,
    },
    /// Tenant moved to another shard; `tenant` is the re-minted handle.  The
    /// `previous` handle stays usable forever (the coordinator forwards it),
    /// but new callers should prefer the fresh one — it routes in one hop.
    TenantMigrated {
        /// The tenant's new handle, minted by the target shard.
        tenant: u64,
        /// The handle the move retired: the tenant's *live* handle at the
        /// moment of migration.  When the caller addressed the tenant
        /// through an older alias, this is what that alias resolved to, not
        /// the alias itself (every older alias keeps forwarding regardless).
        previous: u64,
        /// Source shard.
        from: usize,
        /// Target shard.
        to: usize,
    },
    /// One rebalancing pass completed (possibly with zero moves).
    Rebalanced(RebalanceReport),
    /// One scheduling round completed.
    RoundCompleted(RoundSummary),
    /// Metrics registry export.
    Metrics(MetricsReport),
    /// Snapshot of the full service state.
    Snapshot {
        /// Snapshot JSON; feed back via [`Command::Restore`].
        snapshot: String,
    },
    /// State replaced from a snapshot.
    Restored {
        /// Tenants in the restored state.
        tenants: usize,
    },
    /// Status probe result.
    Status(StatusReport),
    /// The daemon acknowledges shutdown and will exit.
    ShuttingDown,
    /// The command was rejected.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One request line on the wire.
///
/// The `trace` field is *optional on the wire*: a `None` trace is omitted
/// entirely (not sent as `null`), and a missing field reads as `None`.  That
/// is what makes v2.1 backward- and forward-compatible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the [`Reply`].
    pub id: u64,
    /// The command to execute.
    pub command: Command,
    /// Optional trace context (protocol v2.1); absent = untraced v2.0
    /// request.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<WireTraceContext>,
}

impl Request {
    /// An untraced request (the v2.0 wire shape).
    pub fn new(id: u64, command: Command) -> Self {
        Self {
            id,
            command,
            trace: None,
        }
    }
}

/// One reply line on the wire.
///
/// The `trace_id` echo is omitted when absent, and tolerated as missing, so
/// v2.0 and v2.1 peers interoperate in both directions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reply {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// Result payload.
    pub response: Response,
    /// The trace id this command was recorded under (16 lowercase hex
    /// digits), echoed so the client can fetch the trace from `/traces`.
    /// Present when the daemon recorded the command or the request carried
    /// a trace context; absent on an untraced exchange (v2.0 shape).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace_id: Option<String>,
}

impl Reply {
    /// An untraced reply (the v2.0 wire shape).
    pub fn new(id: u64, response: Response) -> Self {
        Self {
            id,
            response,
            trace_id: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_round_trip_through_json_lines() {
        let commands = vec![
            Command::TenantJoin {
                name: "alice".into(),
                weight: 2,
                speedup: vec![1.0, 1.4, 2.1],
            },
            Command::TenantLeave { tenant: 3 },
            Command::UpdateSpeedups {
                tenant: 3,
                speedup: vec![1.0, 1.5, 2.0],
            },
            Command::SubmitJob {
                tenant: 1,
                model: "vgg16".into(),
                workers: 4,
                total_work: 3600.0,
            },
            Command::JobFinished { tenant: 1, job: 9 },
            Command::AddHost {
                gpu_type: 2,
                num_gpus: 4,
            },
            Command::RemoveHost { handle: 5 },
            Command::MigrateTenant {
                tenant: (2u64 << 56) | 3,
                shard: 1,
            },
            Command::Rebalance,
            Command::Tick,
            Command::Metrics,
            Command::Snapshot,
            Command::Restore {
                snapshot: "{\"nested\":\"json\"}".into(),
            },
            Command::Status,
            Command::Shutdown,
        ];
        for command in commands {
            let request = Request::new(7, command);
            let line = serde_json::to_string(&request).unwrap();
            assert!(!line.contains('\n'), "wire lines must be single lines");
            assert!(
                !line.contains("trace"),
                "untraced requests are byte-compatible v2.0: {line}"
            );
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn trace_context_rides_the_optional_field() {
        let mut request = Request::new(9, Command::Tick);
        request.trace = Some(WireTraceContext::from_context(
            oef_trace::TraceContext::sampled_root(0xbeef),
        ));
        let line = serde_json::to_string(&request).unwrap();
        assert!(line.contains("\"trace\""), "{line}");
        assert!(line.contains("000000000000beef"), "{line}");
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, request);
        let ctx = back.trace.unwrap().to_context();
        assert_eq!(ctx.trace_id, 0xbeef);
        assert_eq!(ctx.parent_span, 0);
        assert!(ctx.sampled);

        // A v2.0 request (no trace field) still parses, to trace = None.
        let v2: Request = serde_json::from_str("{\"id\":1,\"command\":\"Tick\"}").unwrap();
        assert_eq!(v2.trace, None);
        // ...and a v2.0 reply (no trace_id) parses to trace_id = None.
        let v2: Reply = serde_json::from_str("{\"id\":1,\"response\":\"ShuttingDown\"}").unwrap();
        assert_eq!(v2.trace_id, None);

        // The reply echo round-trips.
        let mut reply = Reply::new(9, Response::ShuttingDown);
        reply.trace_id = Some("000000000000beef".to_string());
        let line = serde_json::to_string(&reply).unwrap();
        let back: Reply = serde_json::from_str(&line).unwrap();
        assert_eq!(back, reply);

        // Unparsable hex degrades to id 0, never an error.
        let wire = WireTraceContext {
            trace_id: "not-hex".into(),
            parent_span: "0".into(),
            sampled: false,
        };
        assert_eq!(wire.to_context().trace_id, 0);
    }

    #[test]
    fn replies_round_trip_including_errors() {
        let replies = vec![
            Reply::new(1, Response::TenantJoined { tenant: 42 }),
            Reply::new(
                2,
                Response::RoundCompleted(RoundSummary {
                    round: 5,
                    time_secs: 1500.0,
                    solver_time_secs: 0.01,
                    warm_start: true,
                    tenants: vec![TenantRoundSummary {
                        tenant: 42,
                        estimated_throughput: 8.5,
                        actual_throughput: 8.1,
                        devices_held: 6,
                        gpu_shares: vec![0.0, 2.0, 4.0],
                    }],
                }),
            ),
            Reply::new(
                3,
                Response::Error {
                    code: ErrorCode::QuotaExceeded,
                    message: "tenant limit reached".into(),
                },
            ),
            Reply::new(
                4,
                Response::Status(StatusReport {
                    policy: "oef-noncooperative".into(),
                    protocol: PROTOCOL_VERSION,
                    uptime_secs: 12.5,
                    round: 9,
                    time_secs: 2700.0,
                    tenants: 2,
                    jobs: 5,
                    hosts: 2,
                    total_devices: 8,
                    topology: vec![
                        HostStatusEntry {
                            host: 1,
                            gpu_type: 0,
                            num_gpus: 4,
                        },
                        HostStatusEntry {
                            host: (1 << 32) | 2,
                            gpu_type: 1,
                            num_gpus: 4,
                        },
                    ],
                    shards: vec![ShardStatusEntry {
                        shard: 0,
                        tenants: 2,
                        jobs: 5,
                        hosts: 2,
                        total_devices: 8,
                        round: 9,
                        solve_ewma_secs: 0.0021,
                    }],
                    forwarding_entries: 1,
                    forwarding_depth: 1,
                }),
            ),
            Reply::new(
                5,
                Response::HostAdded {
                    host: (3 << 32) | 7,
                },
            ),
            Reply::new(
                6,
                Response::TenantMigrated {
                    tenant: (1u64 << 56) | 2,
                    previous: 3,
                    from: 0,
                    to: 1,
                },
            ),
            Reply::new(
                8,
                Response::Metrics(MetricsReport {
                    commands_processed: 100,
                    commands_rejected: 3,
                    rounds_solved: 40,
                    jobs_completed: 17,
                    warm_solves: 39,
                    cold_solves: 1,
                    dense_fallbacks: 0,
                    basis_repairs: 5,
                    churn_repairs: 2,
                    refactorizations: 6,
                    eta_pivots: 310,
                    warm_hit_rate: 0.975,
                    solve_p50_secs: 0.012,
                    solve_p99_secs: 0.050,
                    solve_last_secs: 0.011,
                    queue_depth: 2,
                    tenants: 4,
                    hosts: 3,
                    tenants_migrated: 1,
                    uptime_secs: 88.25,
                    solve_ewma_secs: vec![0.012, 0.009],
                    journal_appends: 120,
                    journal_fsyncs: 30,
                    journal_appended_bytes: 40960,
                    journal_truncated_bytes_on_recovery: 12,
                }),
            ),
            Reply::new(
                7,
                Response::Rebalanced(RebalanceReport {
                    policy: "threshold".into(),
                    imbalance_before: 4.0,
                    imbalance_after: 1.0,
                    threshold: 2.0,
                    moves: vec![ExecutedMigration {
                        previous: 3,
                        tenant: (1u64 << 56) | 2,
                        from: 0,
                        to: 1,
                    }],
                }),
            ),
        ];
        for reply in replies {
            let line = serde_json::to_string(&reply).unwrap();
            let back: Reply = serde_json::from_str(&line).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn v1_remove_host_shape_is_rejected_not_reinterpreted() {
        // v1 sent `{"RemoveHost":{"host":<dense id>}}`.  v2 renamed the field
        // to `handle` precisely so this old shape fails to parse (a loud,
        // structured error at the wire) instead of being read as a handle and
        // removing the wrong host.
        let err = serde_json::from_str::<Command>("{\"RemoveHost\":{\"host\":2}}");
        assert!(err.is_err(), "v1 request shape must not parse: {err:?}");
    }

    #[test]
    fn error_codes_serialize_as_strings() {
        let json = serde_json::to_string(&ErrorCode::Busy).unwrap();
        assert_eq!(json, "\"Busy\"");
    }
}
