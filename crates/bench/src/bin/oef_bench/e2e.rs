//! The end-to-end pass, tracing off: what one closed-loop client sees over
//! loopback TCP against the production daemon shape — or, on an embedded
//! workload, what a caller sees that uses the federation as a library.

use crate::daemon::{self, Driver, JOURNAL};
use crate::script::{Op, ScriptGen, Spec};
use crate::{oracle, stats};
use oef_service::{ClientConfig, ClientError, Command, Response, Server, ServiceClient};
use oef_shard::{Journaled, ShardCoordinator};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed snapshot exports / restores of an embedded run; `stall_ms` and
/// `recovery_s` are their medians there.
const EXPORTS: usize = 15;
const RESTORES: usize = 9;

/// The production shape: a journaled daemon serving on loopback plus the one
/// client connection driving it.
pub struct Tcp {
    pub server: Server<Journaled>,
    pub client: ServiceClient,
}

impl Tcp {
    /// Binds a fresh journaled daemon and connects the client.
    pub fn start(spec: &Spec, tag: &str) -> Tcp {
        let handler = daemon::journaled(spec, &daemon::scratch_dir(tag));
        let server = Server::spawn(handler, "127.0.0.1:0").expect("loopback binds");
        // `Busy` must surface (it counts as a failed op), not be retried away.
        let config = ClientConfig {
            busy_retries: 0,
            read_timeout: Some(Duration::from_secs(120)),
            ..ClientConfig::default()
        };
        let client =
            ServiceClient::connect_with(server.local_addr(), config).expect("client connects");
        Tcp { server, client }
    }
}

/// How a pass reaches the daemon.
pub enum Link {
    Tcp(Box<Tcp>),
    /// The library shape ([`Spec::embedded`]): the un-journaled federation,
    /// `apply` called on the caller's own thread — no sockets, codec, thread
    /// hand-off or journal between the caller and the policy.
    Embedded(Box<ShardCoordinator>),
}

impl Link {
    /// The link the workload's end-to-end pass uses.
    fn open(spec: &Spec, tag: &str) -> Link {
        if spec.embedded {
            Link::Embedded(Box::new(daemon::coordinator(spec)))
        } else {
            Link::Tcp(Box::new(Tcp::start(spec, tag)))
        }
    }

    /// One call with failures folded into the reply.
    pub fn call(&mut self, command: Command) -> Response {
        match self {
            Link::Tcp(tcp) => match tcp.client.call(command) {
                Ok(response) => response,
                Err(ClientError::Service { code, message }) => Response::Error { code, message },
                Err(e) => daemon::transport_error(e),
            },
            Link::Embedded(core) => core.apply(command, 0),
        }
    }

    /// Clean shutdown (a served daemon checkpoints on its way out).
    pub fn stop(self) {
        if let Link::Tcp(mut tcp) = self {
            let _ = tcp.client.shutdown();
            tcp.server.join();
        }
    }
}

/// A daemon behind its link, set up and ready for timed rounds.
pub struct Live {
    pub link: Link,
    pub driver: Driver,
    pub gen: ScriptGen,
}

impl Live {
    /// Runs the shared set-up (population, cold round, warm-up) through `link`.
    pub fn start(spec: &Spec, seed: u64, mut link: Link) -> Live {
        let mut driver = Driver::new(spec);
        let mut gen = ScriptGen::new(*spec, seed);
        daemon::populate(&mut driver, &mut gen, &mut |c| link.call(c));
        Live { link, driver, gen }
    }
}

/// How long a measured phase runs: wall time (whole rounds), or a fixed
/// round count for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    Rounds(u64),
}

/// What the measured phase saw.
pub struct Measured {
    pub wall_secs: f64,
    /// Seconds of it the client spent waiting for replies: a closed-loop
    /// caller's own time between commands (here the script generator and the
    /// per-reply checks) is not the program's.
    busy_secs: f64,
    pub commands: u64,
    /// Those of `commands` a journal appended (all but `Status`/`Metrics`);
    /// 0 on an un-journaled link.
    journaled: u64,
    pub rounds: u64,
    /// Caller-observed latency (ms) of every `Tick` of the window.
    pub tick_ms: Vec<f64>,
    /// Latency (ms) of each command that tripped a checkpoint: those inside
    /// the window, then those provoked after it by filler commands.
    stalls_ms: Vec<f64>,
    provoked_ms: Vec<f64>,
    /// Median of the K largest command latencies of the window, K =
    /// checkpoints completed in it (at least 1): the issue's `stall_ms`
    /// estimator, printed as a cross-check (see [`Self::stall_ms`]).
    pub top_k_ms: f64,
    pub est_throughput: f64,
    /// Share of the phase's CPU time the hypervisor gave to someone else.
    pub steal_pct: f64,
}

impl Measured {
    /// Checkpoints completed in the window / provoked after it.
    pub fn checkpoints(&self) -> (usize, usize) {
        (self.stalls_ms.len(), self.provoked_ms.len())
    }

    /// Median latency of the commands that tripped a checkpoint — what a
    /// caller waits when its command is the `compact_every`-th.  Which
    /// commands those are is counted from the client side ([`tripped`]).  On
    /// the large workloads they are also the K largest latencies of the run
    /// ([`Self::top_k_ms`] agrees).  When no checkpoint fell anywhere
    /// (`--smoke`) it is the largest latency seen.
    pub fn stall_ms(&self) -> f64 {
        let all: Vec<f64> = self
            .stalls_ms
            .iter()
            .chain(&self.provoked_ms)
            .copied()
            .collect();
        if all.is_empty() {
            self.top_k_ms
        } else {
            stats::median(&all)
        }
    }

    /// Quantile `q` of caller-observed tick latency over the whole window.
    pub fn tick_quantile_ms(&self, q: f64) -> f64 {
        let mut ticks = self.tick_ms.clone();
        ticks.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
        stats::quantile_sorted(&ticks, q)
    }

    /// Commands per second of waiting over the whole window *between* its
    /// checkpoint stalls: the commands that tripped one and their time are
    /// taken out.
    pub fn cmd_per_s_net(&self) -> f64 {
        let stalled_secs = self.stalls_ms.iter().sum::<f64>() * 1e-3;
        (self.commands as usize - self.stalls_ms.len()) as f64 / (self.busy_secs - stalled_secs)
    }

    /// Commands per second over a whole checkpoint cycle: the window's
    /// commands at the window's own pace plus one `stall_ms` per
    /// `compact_every` journaled commands.  That is commands ÷ seconds of a
    /// window holding a whole number of cycles; a `--seconds` window holds 0 to
    /// 4 checkpoints of up to a second each on the large workloads, and
    /// whether the last one falls inside is a property of the window, not of
    /// the program.  Without a journal there is no cycle and it is the pace.
    pub fn cmd_per_s(&self) -> f64 {
        if self.journaled == 0 {
            return self.cmd_per_s_net();
        }
        let cycle = JOURNAL.compact_every as f64 * self.commands as f64 / self.journaled as f64;
        cycle / (cycle / self.cmd_per_s_net() + self.stall_ms() * 1e-3)
    }

    /// Commands per wall second over the window as it happened to fall.
    pub fn cmd_per_s_gross(&self) -> f64 {
        self.commands as f64 / self.wall_secs
    }
}

/// `(steal, total)` jiffies of the whole machine so far.
fn cpu_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0.0),
        fields.iter().take(8).sum(),
    )
}

/// Whether the command just observed tripped a checkpoint: a journaled daemon
/// checkpoints inline on every `compact_every`-th journaled command.
fn tripped(driver: &Driver, op: &Op) -> bool {
    !matches!(op, Op::Status | Op::Metrics)
        && driver.journaled.is_multiple_of(JOURNAL.compact_every)
}

/// How many of the window's largest latencies are kept for [`Measured::top_k_ms`].
const SLOWEST_KEPT: usize = 64;

/// Replays whole rounds through `transport` until `limit` is reached.
/// `journal` says whether the daemon behind it checkpoints.
pub fn measure(
    driver: &mut Driver,
    gen: &mut ScriptGen,
    limit: Limit,
    journal: bool,
    transport: &mut dyn FnMut(Command) -> Response,
) -> Measured {
    let (rounds0, est0, cmds0) = (driver.rounds, driver.est_throughput_sum, driver.attempted);
    let journaled0 = driver.journaled;
    let jiffies0 = cpu_jiffies();
    let (mut slowest, mut tick_ms, mut stalls_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut busy_ms = 0.0;
    let started = Instant::now();
    loop {
        let done = match limit {
            Limit::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Limit::Rounds(r) => driver.rounds - rounds0 >= r,
        };
        if done {
            break;
        }
        for op in gen.next_round() {
            let took = daemon::run_op(driver, &op, transport).as_secs_f64() * 1e3;
            busy_ms += took;
            if op == Op::Tick {
                tick_ms.push(took);
            }
            if journal && tripped(driver, &op) {
                stalls_ms.push(took);
            }
            // Only the largest few matter; an embedded window has 300 000.
            slowest.push(took);
            if slowest.len() >= 2 * SLOWEST_KEPT {
                slowest.sort_by(|a: &f64, b| b.partial_cmp(a).expect("latencies are never NaN"));
                slowest.truncate(SLOWEST_KEPT);
            }
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let jiffies = cpu_jiffies();
    let rounds = driver.rounds - rounds0;
    Measured {
        wall_secs,
        busy_secs: busy_ms * 1e-3,
        commands: driver.attempted - cmds0,
        journaled: if journal {
            driver.journaled - journaled0
        } else {
            0
        },
        rounds,
        tick_ms,
        top_k_ms: stats::top_k_median(&slowest, stalls_ms.len().clamp(1, SLOWEST_KEPT)),
        stalls_ms,
        provoked_ms: Vec::new(),
        est_throughput: (driver.est_throughput_sum - est0) / rounds.max(1) as f64,
        steal_pct: 100.0 * (jiffies.0 - jiffies0.0) / (jiffies.1 - jiffies0.1).max(1.0),
    }
}

impl Measured {
    /// Tops the window's checkpoints up to `stall_samples` with cheap filler
    /// commands (re-profiles, no ticks): a checkpoint comes every
    /// `compact_every` journaled commands whatever they are, so each further
    /// `stall_ms` sample costs little more than the stall itself.  Runs after
    /// the oracle has checked the window's last round.
    pub fn provoke_stalls(
        &mut self,
        driver: &mut Driver,
        gen: &mut ScriptGen,
        stall_samples: usize,
        transport: &mut dyn FnMut(Command) -> Response,
    ) {
        while self.stalls_ms.len() + self.provoked_ms.len() < stall_samples {
            let filler = gen.filler();
            let took = daemon::run_op(driver, &filler, transport).as_secs_f64() * 1e3;
            if tripped(driver, &filler) {
                self.provoked_ms.push(took);
            }
        }
    }
}

/// What `stall_ms` and `recovery_s` are without a journal.  An embedder that
/// wants its state to outlive the process calls `snapshot_json` and, after a
/// crash, `from_federated_json` — the calls a journaled daemon's checkpoint
/// and recovery are built on.  The pause of one export is the embedded
/// `stall_ms` (median of [`EXPORTS`], returned in ms); restoring that snapshot
/// and serving the next round, a cold solve, is the embedded `recovery_s`
/// (median of [`RESTORES`], returned in seconds).  The restored federation's
/// round must be the uninterrupted one's.
///
/// Like the journaled workloads' crash twin, the federation exported here
/// replays a fixed reference script (set-up only), not `--seed`'s: the cold
/// solve after a restore takes 40 to 370 ms depending on where the traffic
/// left the profiles.  The returned driver carries the pass's op counts.
pub fn export_restore(spec: &Spec) -> (f64, f64, Driver) {
    let link = Link::Embedded(Box::new(daemon::coordinator(spec)));
    let Live {
        link: Link::Embedded(mut core),
        mut driver,
        ..
    } = Live::start(spec, crate::script::POPULATION_SEED, link)
    else {
        unreachable!("the link was opened embedded");
    };
    let mut snapshot = String::new();
    let export_ms: Vec<f64> = (0..EXPORTS)
        .map(|_| {
            let started = Instant::now();
            snapshot = core.snapshot_json().expect("snapshots serialize");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mut restored_round = None;
    let restore_secs: Vec<f64> = (0..RESTORES)
        .map(|_| {
            let started = Instant::now();
            let mut restored =
                ShardCoordinator::from_federated_json(&snapshot).expect("own snapshots restore");
            restored_round = Some(restored.apply(Command::Tick, 0));
            started.elapsed().as_secs_f64()
        })
        .collect();
    daemon::run_op(&mut driver, &Op::Tick, &mut |c| core.apply(c, 0));
    match (restored_round, driver.last_round.clone()) {
        (Some(Response::RoundCompleted(restored)), Some(live)) => {
            oracle::check_same_round(&mut driver, &restored, &live)
        }
        (other, _) => driver.fail(format!("restored federation refused to tick: {other:?}")),
    }
    (
        stats::median(&export_ms),
        stats::median(&restore_secs),
        driver,
    )
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median set-up time over [`SETUPS`] fresh daemons; the last one is kept
/// for the measured phase.
pub fn setup(spec: &Spec, seed: u64) -> (f64, Live) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut kept: Option<Live> = None;
    for i in 0..SETUPS {
        if let Some(previous) = kept.take() {
            previous.link.stop();
        }
        let started = Instant::now();
        let link = Link::open(spec, &format!("e2e-{i}"));
        kept = Some(Live::start(spec, seed, link));
        secs.push(started.elapsed().as_secs_f64());
    }
    (stats::median(&secs), kept.expect("SETUPS >= 1"))
}
