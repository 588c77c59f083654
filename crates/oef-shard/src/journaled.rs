//! Write-ahead journaling around a [`ShardCoordinator`].
//!
//! [`Journaled`] wraps a coordinator with an `oef-journal` command log and a
//! periodically-checkpointed snapshot, turning the daemon's proven
//! determinism into a durability story: every mutating command is appended
//! (and group-committed) *before* it is applied, so a crash at any moment
//! recovers by restoring `snapshot.json` and replaying the journal tail —
//! [`Journaled::recover`] reproduces the pre-crash state exactly, because
//! replaying the same commands against the same snapshot is the same
//! computation.
//!
//! Three commands need care:
//!
//! * **Read-only commands** (`Status`, `Metrics`, `Snapshot`) are never
//!   journaled — they mutate nothing.
//! * **`Rebalance`** is journaled *by its effects*: the pass plans from the
//!   per-shard solve-latency EWMA, a wall-clock signal that replay cannot
//!   reproduce, so instead of logging `Rebalance` the wrapper drains the
//!   coordinator's trail of attempted moves and logs each as a
//!   `MigrateTenant` (attempts, not successes: even a refused move mutates —
//!   it re-mints the tenant on its source shard and adds a rollback
//!   forwarding edge).  This is the one apply-before-journal exception; the
//!   worker is single-threaded, so no later command can overtake the trail.
//! * **Commands refused while shutting down** are not journaled at all — a
//!   recovered coordinator is *not* shutting down, so replaying them would
//!   apply commands the live daemon refused.
//!
//! Every `--compact-every` journaled commands the wrapper **checkpoints**:
//! syncs the journal, writes the federated snapshot atomically (temp file +
//! fsync + rename, via [`oef_journal::PendingFile`]) and deletes every
//! journal segment the snapshot covers.  The v5 envelope records the journal
//! sequence number it covers, so replay starts exactly where the snapshot
//! ends; segments a crashed compaction failed to delete are skipped as stale
//! on recovery and removed by the next checkpoint.  [`CrashPoint`]s can be
//! armed ([`Journaled::with_faults`]) to stop the pipeline dead at the nasty
//! moments — the crash-recovery e2e suite drives every one of them.

use crate::coordinator::ShardCoordinator;
use oef_attrib::AttributionRegistry;
use oef_core::sharded;
use oef_journal::{
    CrashPoint, FaultInjector, FaultPlan, Journal, JournalConfig, PendingFile, RecoveryReport,
};
use oef_obs::{Counter, Gauge, Histogram, Registry, DEFAULT_LATENCY_BUCKETS};
use oef_service::{Command, CommandHandler, ErrorCode, Response};
use oef_trace::Tracer;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File name of the checkpoint snapshot inside the journal directory.
const SNAPSHOT_FILE: &str = "snapshot.json";

/// Durability knobs of a [`Journaled`] coordinator.
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// Group-commit batch: fsync the journal after every n-th append
    /// (1 = synchronous, 0 = never explicitly; see `oef-journal`).
    pub fsync_every: u64,
    /// Checkpoint (snapshot + compact the journal) after this many journaled
    /// commands (0 = only on shutdown).
    pub compact_every: u64,
    /// Records per journal segment file before rolling.
    pub segment_records: u64,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions {
            fsync_every: 1,
            compact_every: 4096,
            segment_records: 1024,
        }
    }
}

/// What [`Journaled::recover`] did, for operator logs.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySummary {
    /// Journal sequence number the snapshot covered (replay started after it).
    pub base_seq: u64,
    /// Commands replayed from the journal tail.
    pub replayed: usize,
    /// Stale records skipped (left behind by an interrupted compaction).
    pub stale_skipped: usize,
    /// Bytes truncated off torn or corrupt segment tails.
    pub torn_bytes: u64,
    /// Records dropped past a group-commit sequence gap.
    pub gap_dropped: usize,
    /// Coordinator rounds after replay.
    pub rounds: usize,
}

impl RecoverySummary {
    fn new(base_seq: u64, report: RecoveryReport, rounds: usize) -> Self {
        RecoverySummary {
            base_seq,
            replayed: report.replayed,
            stale_skipped: report.stale_skipped,
            torn_bytes: report.torn_bytes,
            gap_dropped: report.gap_dropped,
            rounds,
        }
    }
}

/// An armed [`CrashPoint`] fired: the harness must treat the process as
/// dead — drop the [`Journaled`] without further writes and recover.
#[derive(Debug)]
pub struct Crashed;

/// Journal exposition cells, mirroring [`Journal::stats`] after each
/// command (the journal keeps plain integers; these are the `Arc`-backed
/// cells the `/metrics` listener reads).
#[derive(Debug)]
struct JournalObs {
    appends: Counter,
    fsyncs: Counter,
    appended_bytes: Counter,
    truncated_bytes: Gauge,
    replayed: Gauge,
    journal_seq: Gauge,
    /// Wall-clock latency of individual journal appends and fsyncs, with
    /// observations pinned to the active trace as exemplars — a slow-commit
    /// spike in a dashboard jumps straight to the command that paid it.
    append_hist: Histogram,
    sync_hist: Histogram,
}

/// Observes `secs`, pinning it to the active sampled trace (if any) as an
/// OpenMetrics exemplar on its histogram bucket.
fn observe_latency(hist: &Histogram, secs: f64) {
    match oef_trace::current_trace_id() {
        Some(id) => hist.observe_with_exemplar(secs, &oef_trace::format_id(id)),
        None => hist.observe(secs),
    }
}

/// A [`ShardCoordinator`] behind a write-ahead journal.  Implements
/// [`CommandHandler`], so `Server::spawn(journaled, addr)` serves the same
/// wire protocol with durability.
#[derive(Debug)]
pub struct Journaled {
    inner: ShardCoordinator,
    journal: Journal,
    snapshot_path: PathBuf,
    compact_every: u64,
    since_compact: u64,
    faults: FaultInjector,
    /// Commands replayed from the journal tail when this instance was
    /// recovered (0 for a freshly created journal).
    replayed_on_recovery: u64,
    /// The last checkpoint's snapshot text, kept for its allocation: every
    /// checkpoint writes the whole state, and growing a fresh string to a
    /// megabyte each time left the allocator holding the intermediate
    /// buffers (about one more snapshot's worth of peak RSS at 500 tenants).
    snapshot_buf: String,
    obs: Option<JournalObs>,
}

impl Journaled {
    /// Starts journaling `inner` in a fresh directory: writes the initial
    /// checkpoint snapshot (atomically) and creates the journal lanes, one
    /// per shard.
    ///
    /// # Errors
    ///
    /// Fails if `dir` already holds a journal (recover instead — creating
    /// over history could silently drop it) or on any I/O failure.
    pub fn create(
        mut inner: ShardCoordinator,
        dir: &Path,
        options: JournalOptions,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already exists; recover from it instead of creating over it",
                    snapshot_path.display()
                ),
            ));
        }
        // This journal's sequence numbers start at 1, whatever any restored
        // envelope claimed about a previous journal's epoch.
        inner.set_journal_seq(0);
        let journal = Journal::create(dir, journal_config(&inner, options))?;
        let mut journaled = Journaled {
            inner,
            journal,
            snapshot_path,
            compact_every: options.compact_every,
            since_compact: 0,
            faults: FaultInjector::none(),
            replayed_on_recovery: 0,
            snapshot_buf: String::new(),
            obs: None,
        };
        journaled.encode_snapshot()?;
        oef_journal::atomic_write(&journaled.snapshot_path, journaled.snapshot_buf.as_bytes())?;
        Ok(journaled)
    }

    /// Recovers a journaled coordinator from `dir`: restores
    /// `snapshot.json`, opens the journal (repairing torn tails), and
    /// replays every surviving command after the snapshot's sequence number.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot is missing or invalid, or on I/O failures.
    /// A damaged journal *tail* is not an error — it is truncated at the
    /// last valid record, exactly what a crash mid-append leaves behind.
    pub fn recover(dir: &Path, options: JournalOptions) -> io::Result<(Self, RecoverySummary)> {
        Self::recover_with(dir, options, None)
    }

    /// Like [`Self::recover`], with replay tracing: when a sampling `tracer`
    /// is given, each replayed command is recorded as a trace marked
    /// `replay = true` under a *freshly minted* id.  The journal does not
    /// persist trace context on purpose — a replayed command must never be
    /// re-attributed to the trace that originally carried it (that trace's
    /// timings belong to the pre-crash process).
    ///
    /// # Errors
    ///
    /// See [`Self::recover`].
    pub fn recover_with(
        dir: &Path,
        options: JournalOptions,
        tracer: Option<&Tracer>,
    ) -> io::Result<(Self, RecoverySummary)> {
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let snapshot = std::fs::read_to_string(&snapshot_path)?;
        let mut inner = ShardCoordinator::from_federated_json(&snapshot).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", snapshot_path.display()),
            )
        })?;
        let base_seq = inner.journal_seq();
        let (journal, records, report) =
            Journal::open(dir, base_seq, journal_config(&inner, options))?;
        for record in &records {
            let command: Command =
                serde_json::from_str(std::str::from_utf8(&record.payload).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("journal record {} is not UTF-8: {e}", record.seq),
                    )
                })?)
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("journal record {} is not a command: {e}", record.seq),
                    )
                })?;
            // Replay applies commands, not their outcomes: a command the live
            // daemon refused is refused again here, identically (state and
            // command are both identical), so errors are expected data.
            match tracer {
                Some(t) => {
                    let root = command.name();
                    t.trace_replay(root, || inner.apply(command, 0));
                }
                None => {
                    inner.apply(command, 0);
                }
            }
            inner.set_journal_seq(record.seq);
        }
        let summary = RecoverySummary::new(base_seq, report, inner.rounds_run());
        Ok((
            Journaled {
                inner,
                journal,
                snapshot_path,
                compact_every: options.compact_every,
                since_compact: 0,
                faults: FaultInjector::none(),
                replayed_on_recovery: report.replayed as u64,
                snapshot_buf: String::new(),
                obs: None,
            },
            summary,
        ))
    }

    /// Arms a scripted crash (test harness; see [`CrashPoint`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultInjector::armed(plan);
        self
    }

    /// The wrapped coordinator.
    pub fn coordinator(&self) -> &ShardCoordinator {
        &self.inner
    }

    /// Coordinator rounds completed.
    pub fn rounds_run(&self) -> usize {
        self.inner.rounds_run()
    }

    /// Live journal segment files (tests observe compaction through this).
    pub fn segment_count(&self) -> usize {
        self.journal.segment_count()
    }

    /// Executes one command with full crash-injection plumbing.  An armed
    /// fault firing returns `Err(Crashed)`: the files are now exactly as a
    /// real crash at that point would leave them, and the caller must stop
    /// using this value.
    ///
    /// # Errors
    ///
    /// Only [`Crashed`] — journal I/O failures refuse the command with a
    /// structured [`Response::Error`] *without* applying it (write-ahead
    /// means no un-journaled mutation is ever visible).
    pub fn try_apply(&mut self, command: Command, queue_depth: usize) -> Result<Response, Crashed> {
        let result = self.try_apply_inner(command, queue_depth);
        self.refresh_journal_obs();
        result
    }

    fn try_apply_inner(
        &mut self,
        command: Command,
        queue_depth: usize,
    ) -> Result<Response, Crashed> {
        match command {
            // Read-only: nothing to journal.  `Metrics` is the coordinator's
            // report plus this wrapper's journal counters — the journal is
            // invisible to the inner coordinator.
            Command::Status | Command::Metrics | Command::Snapshot => {
                let mut response = self.inner.apply(command, queue_depth);
                if let Response::Metrics(report) = &mut response {
                    let stats = self.journal.stats();
                    report.journal_appends = stats.appends;
                    report.journal_fsyncs = stats.fsyncs;
                    report.journal_appended_bytes = stats.appended_bytes;
                    report.journal_truncated_bytes_on_recovery = stats.truncated_bytes_on_recovery;
                }
                Ok(response)
            }
            // The rebalance plan reads wall-clock solve latencies, so the
            // *plan* is not replayable; journal the executed trail instead
            // (apply-then-journal is safe on the single worker thread).
            Command::Rebalance => {
                let response = self.inner.apply(command, queue_depth);
                for (tenant, shard) in self.inner.drain_rebalance_trail() {
                    let journaled = self.journal_command(&Command::MigrateTenant { tenant, shard });
                    match journaled {
                        Ok(seq) => self.inner.set_journal_seq(seq),
                        Err(e) => {
                            // The moves already executed; losing their
                            // journal entries would make recovery diverge.
                            // Surface loudly — the reply reaches the caller,
                            // and the next checkpoint re-covers the state.
                            return Ok(Response::Error {
                                code: ErrorCode::Internal,
                                message: format!(
                                    "rebalance executed but journaling its moves failed: {e}; \
                                     state is ahead of the journal until the next checkpoint"
                                ),
                            });
                        }
                    }
                }
                self.maybe_checkpoint()?;
                Ok(response)
            }
            Command::Shutdown => {
                let response = self.inner.apply(command, queue_depth);
                // The queue drains and `on_shutdown` checkpoints after it;
                // sync eagerly anyway so even a kill between here and there
                // loses nothing.
                let _ = self.timed_sync();
                Ok(response)
            }
            command => {
                // A shutting-down coordinator refuses mutations; those
                // refusals must not be journaled (a recovered coordinator is
                // not shutting down and would apply them on replay).
                if self.inner.is_shutting_down() {
                    return Ok(self.inner.apply(command, queue_depth));
                }
                if self.faults.should_crash(CrashPoint::PreAppend) {
                    return Err(Crashed);
                }
                let seq = match self.journal_command(&command) {
                    Ok(seq) => seq,
                    Err(e) => {
                        // Write-ahead: if the append failed, the command must
                        // not be applied.
                        return Ok(Response::Error {
                            code: ErrorCode::Internal,
                            message: format!("journal append failed, command refused: {e}"),
                        });
                    }
                };
                if self.faults.should_crash(CrashPoint::PostAppendPreApply) {
                    let _ = self.timed_sync();
                    return Err(Crashed);
                }
                let response = self.inner.apply(command, queue_depth);
                self.inner.set_journal_seq(seq);
                self.maybe_checkpoint()?;
                Ok(response)
            }
        }
    }

    /// Serializes and appends one command, routing it to the lane of the
    /// shard its handle names (lane 0 for commands placed later or global
    /// ones).
    fn journal_command(&mut self, command: &Command) -> io::Result<u64> {
        let payload = serde_json::to_string(command)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let started = Instant::now();
        let result = self.journal.append(lane_of(command), payload.as_bytes());
        let elapsed = started.elapsed();
        oef_trace::profile::record("journal_append", elapsed.as_nanos() as u64);
        if let Some(obs) = &self.obs {
            observe_latency(&obs.append_hist, elapsed.as_secs_f64());
        }
        result
    }

    /// Syncs the journal, feeding the fsync latency to the always-on
    /// profiler and (once attached) the exemplar-linked sync histogram.
    fn timed_sync(&mut self) -> io::Result<()> {
        let started = Instant::now();
        let result = self.journal.sync();
        let elapsed = started.elapsed();
        oef_trace::profile::record("journal_sync", elapsed.as_nanos() as u64);
        if let Some(obs) = &self.obs {
            observe_latency(&obs.sync_hist, elapsed.as_secs_f64());
        }
        result
    }

    /// Forwards the shared solve-cost registry to the wrapped coordinator.
    pub fn attach_attribution(&mut self, attrib: &AttributionRegistry) {
        self.inner.attach_attribution(attrib);
    }

    fn maybe_checkpoint(&mut self) -> Result<(), Crashed> {
        self.since_compact += 1;
        if self.compact_every > 0 && self.since_compact >= self.compact_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Checkpoints now: syncs the journal, writes the snapshot atomically,
    /// compacts the journal down to segments the snapshot does not cover.
    ///
    /// I/O failures are logged and swallowed — a failed checkpoint only
    /// means recovery replays a longer tail; durability is never lost.
    ///
    /// # Errors
    ///
    /// Only [`Crashed`], from an armed [`CrashPoint::MidSnapshotWrite`] or
    /// [`CrashPoint::MidCompaction`].
    pub fn checkpoint(&mut self) -> Result<(), Crashed> {
        self.since_compact = 0;
        if let Err(e) = self.try_checkpoint() {
            match e {
                CheckpointError::Crashed => return Err(Crashed),
                CheckpointError::Io(e) => {
                    oef_trace::log_json(
                        "error",
                        "journal",
                        "checkpoint failed; journal keeps the full tail",
                        &[("error", &e.to_string())],
                    );
                }
            }
        }
        Ok(())
    }

    fn try_checkpoint(&mut self) -> Result<(), CheckpointError> {
        // The snapshot claims to cover `journal_seq`; everything up to it
        // must be durable before the claim is.
        self.timed_sync()?;
        self.encode_snapshot()?;
        let mut pending = PendingFile::begin(&self.snapshot_path)?;
        pending.write_all(self.snapshot_buf.as_bytes())?;
        if self.faults.should_crash(CrashPoint::MidSnapshotWrite) {
            // Dropping `pending` abandons the temp file: the previous
            // snapshot stays authoritative, the full tail replays.
            return Err(CheckpointError::Crashed);
        }
        pending.commit()?;
        if self.faults.should_crash(CrashPoint::MidCompaction) {
            // The new snapshot landed but stale segments survive; recovery
            // skips their records and the next checkpoint deletes them.
            return Err(CheckpointError::Crashed);
        }
        self.journal.compact(self.inner.journal_seq())?;
        Ok(())
    }

    /// Encodes the coordinator's state into `self.snapshot_buf`.
    fn encode_snapshot(&mut self) -> io::Result<()> {
        // The direct path, not `apply(Command::Snapshot)`: the shutdown
        // checkpoint runs after the coordinator started refusing commands,
        // and checkpoints must not inflate the command metrics either.
        self.inner
            .write_snapshot_json(&mut self.snapshot_buf)
            .map_err(io::Error::other)
    }

    /// Mirrors the journal's plain integer counters into the exposition
    /// cells.  A handful of atomic stores after each command — and nothing
    /// at all while unattached.
    fn refresh_journal_obs(&self) {
        let Some(obs) = &self.obs else {
            return;
        };
        let stats = self.journal.stats();
        obs.appends.set(stats.appends);
        obs.fsyncs.set(stats.fsyncs);
        obs.appended_bytes.set(stats.appended_bytes);
        obs.truncated_bytes
            .set(stats.truncated_bytes_on_recovery as f64);
        obs.replayed.set(self.replayed_on_recovery as f64);
        obs.journal_seq.set(self.inner.journal_seq() as f64);
    }
}

enum CheckpointError {
    Crashed,
    Io(io::Error),
}

impl From<io::Error> for CheckpointError {
    fn from(value: io::Error) -> Self {
        CheckpointError::Io(value)
    }
}

impl CommandHandler for Journaled {
    fn apply(&mut self, command: Command, queue_depth: usize) -> Response {
        match self.try_apply(command, queue_depth) {
            Ok(response) => response,
            // Unreachable in production (faults are only armed by tests that
            // drive `try_apply` directly), but a structured reply beats a
            // panic if a harness ever serves an armed instance.
            Err(Crashed) => Response::Error {
                code: ErrorCode::Internal,
                message: "injected crash point fired".to_string(),
            },
        }
    }

    fn queue_capacity(&self) -> usize {
        self.inner.queue_capacity()
    }

    fn on_shutdown(&mut self) {
        // Clean shutdown never needs tail replay: flush the journal and
        // checkpoint so the snapshot covers everything.
        let _ = self.timed_sync();
        let _ = self.checkpoint();
    }

    fn attach_attribution(&mut self, attrib: &AttributionRegistry) {
        Journaled::attach_attribution(self, attrib);
    }

    fn attach_observability(&mut self, registry: &Registry) {
        self.inner.attach_observability(registry);
        self.obs = Some(JournalObs {
            appends: registry.counter(
                "oef_journal_appends_total",
                "Commands appended to the write-ahead journal.",
                &[],
            ),
            fsyncs: registry.counter(
                "oef_journal_fsyncs_total",
                "fsync calls issued by the journal (group commits and segment rolls).",
                &[],
            ),
            appended_bytes: registry.counter(
                "oef_journal_appended_bytes_total",
                "Bytes appended to the journal, frame headers included.",
                &[],
            ),
            truncated_bytes: registry.gauge(
                "oef_journal_truncated_bytes_on_recovery",
                "Bytes recovery truncated off torn or corrupt journal tails at open.",
                &[],
            ),
            replayed: registry.gauge(
                "oef_journal_replayed_records",
                "Commands replayed from the journal tail when this process recovered.",
                &[],
            ),
            journal_seq: registry.gauge(
                "oef_journal_seq",
                "Global sequence number of the last journaled-and-applied command.",
                &[],
            ),
            append_hist: registry.histogram(
                "oef_journal_append_seconds",
                "Wall-clock time of one write-ahead journal append.",
                &[],
                DEFAULT_LATENCY_BUCKETS,
            ),
            sync_hist: registry.histogram(
                "oef_journal_sync_seconds",
                "Wall-clock time of one journal fsync (group commits, rolls, checkpoints).",
                &[],
                DEFAULT_LATENCY_BUCKETS,
            ),
        });
        self.refresh_journal_obs();
    }
}

fn journal_config(inner: &ShardCoordinator, options: JournalOptions) -> JournalConfig {
    JournalConfig {
        lanes: inner.num_shards() as u32,
        fsync_every: options.fsync_every,
        segment_records: options.segment_records,
    }
}

/// Journal lane of a command: the shard its handle names, lane 0 for
/// commands without one (their shard is decided at apply time).  Lanes are
/// storage partitioning only — the global sequence number keeps replay
/// totally ordered.
fn lane_of(command: &Command) -> u32 {
    let handle = match command {
        Command::TenantLeave { tenant }
        | Command::UpdateSpeedups { tenant, .. }
        | Command::SubmitJob { tenant, .. }
        | Command::JobFinished { tenant, .. }
        | Command::MigrateTenant { tenant, .. } => *tenant,
        Command::RemoveHost { handle } => *handle,
        _ => return 0,
    };
    sharded::shard_of(handle) as u32
}
