//! The daemon under test, built from public pieces only, and the [`Driver`]
//! that turns script [`Op`]s into wire [`Command`]s and keeps the client-side
//! model the output oracle checks replies against.

use crate::script::{Op, ScriptGen, Spec, GPU_TYPES, LONG_JOB_WORK, WARMUP_ROUNDS};
use oef_cluster::ClusterTopology;
use oef_core::sharded;
use oef_service::{Command, ErrorCode, Response, RoundSummary, ServiceConfig, ServiceLimits};
use oef_shard::{placement_from_name, JournalOptions, Journaled, ShardCoordinator};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};

/// Journal settings of every workload, the same on both sides of any
/// comparison: group commit every 1024 appends, checkpoint (snapshot +
/// compaction) every 2048 journaled commands.
pub const JOURNAL: JournalOptions = JournalOptions {
    fsync_every: 1024,
    compact_every: 2048,
    segment_records: 1024,
};

/// Slack on per-GPU-type capacity sums (shares are LP outputs).
const CAPACITY_TOL: f64 = 1e-6;

const GPU_NAMES: [&str; GPU_TYPES] = ["rtx3070", "rtx3080", "rtx3090"];

fn topology(spec: &Spec) -> ClusterTopology {
    ClusterTopology::uniform(
        GPU_NAMES.iter().map(|n| n.to_string()).collect(),
        &[spec.hosts_per_type; GPU_TYPES],
        spec.gpus_per_host,
    )
}

/// The un-journaled federation: the daemon's core, and the twin the layer
/// pass prices the journal against.
pub fn coordinator(spec: &Spec) -> ShardCoordinator {
    let per_shard = spec.tenants.div_ceil(spec.shards);
    let config = ServiceConfig {
        policy: spec.policy.to_string(),
        round_secs: 300.0,
        physical_placement: true,
        limits: ServiceLimits {
            // Quotas are per shard; migrations may pile tenants onto one.
            max_tenants: per_shard * 2 + 8,
            max_jobs_per_tenant: 512,
            max_hosts: spec.hosts_per_type * GPU_TYPES + 16,
            queue_capacity: 256,
        },
    };
    ShardCoordinator::new(
        (0..spec.shards).map(|_| topology(spec)).collect(),
        config,
        placement_from_name("least-loaded").expect("built-in placement"),
    )
    .expect("workload specs are valid federations")
}

/// The production daemon shape: the federation behind its write-ahead
/// journal, in a fresh directory.
pub fn journaled(spec: &Spec, dir: &Path) -> Journaled {
    Journaled::create(coordinator(spec), dir, JOURNAL).expect("journal directory is writable")
}

/// Where the harness may write: `oef_bench/` inside the cargo target
/// directory this binary was built into — always inside the checkout and
/// always ignored by git, wherever the run was started from.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own path is known");
    let target = exe
        .ancestors()
        .find(|dir| {
            dir.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("target"), Path::to_path_buf);
    target.join("oef_bench")
}

/// A fresh, empty scratch directory for one journal.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = output_dir()
        .join(format!("run-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}

/// Removes every scratch directory this process made.
pub fn remove_scratch() {
    let _ = std::fs::remove_dir_all(output_dir().join(format!("run-{}", std::process::id())));
}

struct Slot {
    /// The handle the tenant joined under.  Commands keep using it after a
    /// migration re-mints the tenant, as a real client would — that is what
    /// exercises the coordinator's forwarding table.
    handle: u64,
    speedup: Vec<f64>,
    jobs: VecDeque<u64>,
}

/// Executes script ops against any `Command -> Response` transport and
/// mirrors what the daemon must now believe: who is registered under which
/// handle with which profile, and how many devices each shard owns.
pub struct Driver {
    slots: Vec<Option<Slot>>,
    /// Live (possibly re-minted) handle → slot.
    live: HashMap<u64, usize>,
    hosts: VecDeque<(u64, usize, usize)>,
    /// Devices per shard per GPU type.
    capacity: Vec<[f64; GPU_TYPES]>,
    /// Commands sent / replies that were errors or failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Commands the journal appends (everything but `Status`/`Metrics`):
    /// a checkpoint fires on every [`JOURNAL`]`.compact_every`-th.
    pub journaled: u64,
    /// Ticks observed and the running Σ over rounds of Σ_tenants
    /// `estimated_throughput` — the paper's efficiency objective as served.
    pub rounds: u64,
    pub est_throughput_sum: f64,
    pub last_round: Option<RoundSummary>,
    pub migrations: u64,
    /// Rounds whose served shares exceed a GPU type's capacity (each is also
    /// a failed operation).
    pub overcommitted_rounds: u64,
    first_failure: Option<String>,
}

impl Driver {
    pub fn new(spec: &Spec) -> Self {
        let per_type = (spec.hosts_per_type * spec.gpus_per_host) as f64;
        Driver {
            slots: (0..spec.tenants).map(|_| None).collect(),
            live: HashMap::new(),
            hosts: VecDeque::new(),
            capacity: vec![[per_type; GPU_TYPES]; spec.shards],
            attempted: 0,
            failed: 0,
            journaled: 0,
            rounds: 0,
            est_throughput_sum: 0.0,
            last_round: None,
            migrations: 0,
            overcommitted_rounds: 0,
            first_failure: None,
        }
    }

    fn slot(&self, slot: usize) -> &Slot {
        self.slots[slot]
            .as_ref()
            .expect("the generator only addresses joined slots")
    }

    /// The wire command for `op` under the handles minted so far.
    pub fn command(&self, op: &Op) -> Command {
        match op {
            Op::Join { name, speedup, .. } => Command::TenantJoin {
                name: name.clone(),
                weight: 1,
                speedup: speedup.clone(),
            },
            Op::Leave { slot } => Command::TenantLeave {
                tenant: self.slot(*slot).handle,
            },
            Op::Update { slot, speedup } => Command::UpdateSpeedups {
                tenant: self.slot(*slot).handle,
                speedup: speedup.clone(),
            },
            Op::Submit { slot, workers } => Command::SubmitJob {
                tenant: self.slot(*slot).handle,
                model: "bench".to_string(),
                workers: *workers,
                total_work: LONG_JOB_WORK,
            },
            Op::Finish { slot } => {
                let s = self.slot(*slot);
                Command::JobFinished {
                    tenant: s.handle,
                    job: *s
                        .jobs
                        .front()
                        .expect("the generator keeps a job per tenant"),
                }
            }
            Op::AddHost { gpu_type, num_gpus } => Command::AddHost {
                gpu_type: *gpu_type,
                num_gpus: *num_gpus,
            },
            Op::RemoveHost => Command::RemoveHost {
                handle: self
                    .hosts
                    .front()
                    .expect("the generator added a host first")
                    .0,
            },
            Op::Rebalance => Command::Rebalance,
            Op::Status => Command::Status,
            Op::Metrics => Command::Metrics,
            Op::Tick => Command::Tick,
        }
    }

    /// Folds the daemon's reply to `op` into the model.  A reply of the
    /// wrong kind, an error, or a round that over-commits a GPU type counts
    /// as a failed operation.
    pub fn observe(&mut self, op: &Op, response: Response) {
        self.attempted += 1;
        if !matches!(op, Op::Status | Op::Metrics) {
            self.journaled += 1;
        }
        match (op, response) {
            (Op::Join { slot, speedup, .. }, Response::TenantJoined { tenant }) => {
                self.live.insert(tenant, *slot);
                self.slots[*slot] = Some(Slot {
                    handle: tenant,
                    speedup: speedup.clone(),
                    jobs: VecDeque::new(),
                });
            }
            (Op::Leave { slot }, Response::TenantLeft { .. }) => {
                self.slots[*slot] = None;
                self.live.retain(|_, s| s != slot);
            }
            (Op::Update { slot, speedup }, Response::SpeedupsUpdated { .. }) => {
                self.slots[*slot].as_mut().expect("joined").speedup = speedup.clone();
            }
            (Op::Submit { slot, .. }, Response::JobSubmitted { job, .. }) => {
                self.slots[*slot]
                    .as_mut()
                    .expect("joined")
                    .jobs
                    .push_back(job);
            }
            (Op::Finish { slot }, Response::JobFinished { .. }) => {
                self.slots[*slot].as_mut().expect("joined").jobs.pop_front();
            }
            (Op::AddHost { gpu_type, num_gpus }, Response::HostAdded { host }) => {
                self.capacity[sharded::shard_of(host)][*gpu_type] += *num_gpus as f64;
                self.hosts.push_back((host, *gpu_type, *num_gpus));
            }
            (Op::RemoveHost, Response::HostRemoved { host }) => {
                let (handle, gpu_type, num_gpus) = self.hosts.pop_front().expect("added first");
                debug_assert_eq!(handle, host);
                self.capacity[sharded::shard_of(host)][gpu_type] -= num_gpus as f64;
            }
            (Op::Rebalance, Response::Rebalanced(report)) => {
                for m in &report.moves {
                    if let Some(slot) = self.live.remove(&m.previous) {
                        self.live.insert(m.tenant, slot);
                    }
                }
                self.migrations += report.moves.len() as u64;
            }
            (Op::Status, Response::Status(_)) | (Op::Metrics, Response::Metrics(_)) => {}
            (Op::Tick, Response::RoundCompleted(summary)) => {
                self.rounds += 1;
                self.est_throughput_sum += summary
                    .tenants
                    .iter()
                    .map(|t| t.estimated_throughput)
                    .sum::<f64>();
                if let Some(over) = self.over_capacity(&summary) {
                    self.overcommitted_rounds += 1;
                    self.fail(format!("round {} over-commits {over}", summary.round));
                }
                self.last_round = Some(summary);
            }
            (op, Response::Error { code, message }) => {
                self.fail(format!("{op:?} -> {code}: {message}"));
            }
            (op, other) => self.fail(format!("{op:?} answered with {other:?}")),
        }
    }

    /// Records one failed check (the first is kept for the report).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }

    /// Per-shard, per-GPU-type capacity check of one served round.
    fn over_capacity(&self, summary: &RoundSummary) -> Option<String> {
        let mut used = vec![[0.0; GPU_TYPES]; self.capacity.len()];
        for t in &summary.tenants {
            for (j, share) in t.gpu_shares.iter().enumerate() {
                used[sharded::shard_of(t.tenant)][j] += share;
            }
        }
        for (shard, (used, cap)) in used.iter().zip(&self.capacity).enumerate() {
            for j in 0..GPU_TYPES {
                if used[j] > cap[j] + CAPACITY_TOL {
                    return Some(format!(
                        "shard {shard} {}: {} of {}",
                        GPU_NAMES[j], used[j], cap[j]
                    ));
                }
            }
        }
        None
    }

    /// What the oracle needs to re-solve shard `shard` cold: its capacities
    /// and, for every tenant in the served round that lives there, the
    /// profile the daemon was last told (in served order).
    pub fn shard_inputs(&self, shard: usize, summary: &RoundSummary) -> ShardInputs {
        let mut rows = Vec::new();
        let mut served = Vec::new();
        for t in &summary.tenants {
            if sharded::shard_of(t.tenant) != shard {
                continue;
            }
            let profile = self
                .live
                .get(&t.tenant)
                .and_then(|&slot| self.slots[slot].as_ref())
                .map(|s| s.speedup.clone());
            rows.push(profile);
            served.push(t.clone());
        }
        ShardInputs {
            capacity: GPU_NAMES
                .iter()
                .zip(self.capacity[shard])
                .map(|(n, c)| (n.to_string(), c))
                .collect(),
            rows,
            served,
        }
    }

    pub fn shards(&self) -> usize {
        self.capacity.len()
    }
}

/// One shard's reconstructed LP inputs next to what the daemon served.
pub struct ShardInputs {
    pub capacity: Vec<(String, f64)>,
    /// `None` marks a served handle the model cannot place — an oracle
    /// failure in itself.
    pub rows: Vec<Option<Vec<f64>>>,
    pub served: Vec<oef_service::TenantRoundSummary>,
}

/// A transport error surfaced as the reply it stands for, so every pass
/// counts failures the same way.
pub fn transport_error(what: impl std::fmt::Display) -> Response {
    Response::Error {
        code: ErrorCode::Internal,
        message: format!("transport: {what}"),
    }
}

/// Runs one op: build the command, send it, fold the reply into the model.
/// Returns how long the transport took.
pub fn run_op(
    driver: &mut Driver,
    op: &Op,
    transport: &mut dyn FnMut(Command) -> Response,
) -> std::time::Duration {
    let command = driver.command(op);
    let started = std::time::Instant::now();
    let response = transport(command);
    let elapsed = started.elapsed();
    driver.observe(op, response);
    elapsed
}

/// The set-up every pass shares: join the population, run the first (cold)
/// round, then the discarded warm-up rounds.
pub fn populate(
    driver: &mut Driver,
    gen: &mut ScriptGen,
    transport: &mut dyn FnMut(Command) -> Response,
) {
    for op in gen.setup() {
        run_op(driver, &op, transport);
    }
    run_op(driver, &Op::Tick, transport);
    for _ in 0..WARMUP_ROUNDS {
        for op in gen.next_round() {
            run_op(driver, &op, transport);
        }
    }
}
