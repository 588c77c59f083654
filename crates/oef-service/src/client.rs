//! Blocking wire-protocol client.
//!
//! One request in flight per client; correlation ids are checked on every
//! reply.  The typed convenience methods unwrap the expected response variant
//! and turn `Response::Error` replies into [`ClientError::Service`], so call
//! sites read like local function calls.
//!
//! The client is defensive by default ([`ClientConfig`]): connects and reads
//! time out instead of hanging on a wedged daemon, and `Busy` replies — the
//! daemon's backpressure signal, sent *instead of* enqueuing the command —
//! are retried with bounded exponential backoff before surfacing, since a
//! rejected command was provably never applied and is safe to resend.

use crate::command::{
    Command, ErrorCode, MetricsReport, RebalanceReport, Reply, Request, Response, RoundSummary,
    StatusReport, WireTraceContext,
};
use oef_trace::Tracer;
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The daemon broke the wire protocol (bad JSON, wrong id, wrong variant).
    Protocol(String),
    /// The daemon rejected the command.
    Service {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Service { code, message } => {
                write!(f, "service error ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(value: std::io::Error) -> Self {
        ClientError::Io(value)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// Robustness knobs of a [`ServiceClient`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Give up connecting after this long (`None` = the OS default, which
    /// can be minutes).
    pub connect_timeout: Option<Duration>,
    /// Give up waiting for a reply after this long (`None` = wait forever).
    /// Generous by default: a `Tick` legitimately takes solver time.
    pub read_timeout: Option<Duration>,
    /// How many times a `Busy` reply is retried before surfacing.  `Busy`
    /// means the daemon refused to even enqueue the command, so a resend can
    /// never double-apply it.
    pub busy_retries: u32,
    /// Backoff before the first `Busy` retry; doubles on each subsequent one.
    pub busy_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            busy_retries: 4,
            busy_backoff: Duration::from_millis(25),
        }
    }
}

/// A blocking connection to an `oef-serviced` daemon.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    config: ClientConfig,
    tracer: Option<Tracer>,
    last_trace_id: Option<String>,
    /// The outgoing line and the incoming one, kept across calls so a
    /// tick's O(tenants) reply is not regrown from empty every round.  Each
    /// keeps the capacity of the largest line so far (a snapshot, say).
    request_line: String,
    reply_line: String,
}

impl ServiceClient {
    /// Connects to a daemon with the default [`ClientConfig`] (bounded
    /// connect/read timeouts, `Busy` retried with backoff).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a daemon with explicit robustness knobs.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; with a connect timeout set, every resolved
    /// address timing out (or failing) yields the last error.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> ClientResult<Self> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                // `connect_timeout` takes a single resolved address: try each
                // resolution like `TcpStream::connect` would.
                let mut last: Option<std::io::Error> = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )
                    })
                })?
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
            config,
            tracer: None,
            last_trace_id: None,
            request_line: String::new(),
            reply_line: String::new(),
        })
    }

    /// Enables client-side trace origination: every subsequent request the
    /// tracer samples (1-in-N) carries a wire [`WireTraceContext`] with
    /// `sampled = true`, forcing the daemon to record it regardless of the
    /// daemon's own sampling rate.  Pass `None` to stop originating traces.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    /// The daemon-side trace id echoed on the most recent reply (recorded
    /// trace when the command was sampled, else the id this client minted),
    /// as 16 lowercase hex digits.  `None` until a traced reply arrives.
    pub fn last_trace_id(&self) -> Option<&str> {
        self.last_trace_id.as_deref()
    }

    /// Sends one command and waits for its reply.  A `Busy` reply — load
    /// shedding by a daemon whose bounded queue stayed full, sent *instead
    /// of* enqueuing the command — is retried up to
    /// [`ClientConfig::busy_retries`] times with exponential backoff before
    /// surfacing; every other error surfaces immediately.
    ///
    /// # Errors
    ///
    /// Fails on transport problems, protocol violations, or when the daemon
    /// replies with [`Response::Error`].
    pub fn call(&mut self, command: Command) -> ClientResult<Response> {
        let mut backoff = self.config.busy_backoff;
        let mut retries_left = self.config.busy_retries;
        loop {
            match self.call_once(command.clone()) {
                Err(ClientError::Service {
                    code: ErrorCode::Busy,
                    ..
                }) if retries_left > 0 => {
                    retries_left -= 1;
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                outcome => return outcome,
            }
        }
    }

    /// One request/reply exchange, no retry policy.
    fn call_once(&mut self, command: Command) -> ClientResult<Response> {
        let id = self.next_id;
        self.next_id += 1;
        let mut request = Request::new(id, command);
        request.trace = self
            .tracer
            .as_ref()
            .and_then(Tracer::sample_context)
            .map(WireTraceContext::from_context);
        self.request_line.clear();
        request
            .write_json(&mut self.request_line)
            .map_err(|e| ClientError::Protocol(format!("request serialization failed: {e}")))?;
        // One write of line + terminator on the unbuffered socket.
        self.request_line.push('\n');
        self.writer.write_all(self.request_line.as_bytes())?;

        self.reply_line.clear();
        let read = self.reader.read_line(&mut self.reply_line)?;
        if read == 0 {
            return Err(ClientError::Protocol(
                "connection closed before reply".to_string(),
            ));
        }
        let reply: Reply = serde_json::from_str(self.reply_line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("malformed reply: {e}")))?;
        if reply.id != id {
            return Err(ClientError::Protocol(format!(
                "reply id {} does not match request id {id}",
                reply.id
            )));
        }
        if reply.trace_id.is_some() {
            self.last_trace_id = reply.trace_id;
        }
        match reply.response {
            Response::Error { code, message } => Err(ClientError::Service { code, message }),
            response => Ok(response),
        }
    }

    /// Registers a tenant, returning its stable handle.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn join(&mut self, name: &str, weight: u32, speedup: &[f64]) -> ClientResult<u64> {
        match self.call(Command::TenantJoin {
            name: name.to_string(),
            weight,
            speedup: speedup.to_vec(),
        })? {
            Response::TenantJoined { tenant } => Ok(tenant),
            other => Err(unexpected("TenantJoined", &other)),
        }
    }

    /// Deregisters a tenant.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn leave(&mut self, tenant: u64) -> ClientResult<()> {
        match self.call(Command::TenantLeave { tenant })? {
            Response::TenantLeft { .. } => Ok(()),
            other => Err(unexpected("TenantLeft", &other)),
        }
    }

    /// Replaces a tenant's reported speedup profile.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn update_speedups(&mut self, tenant: u64, speedup: &[f64]) -> ClientResult<()> {
        match self.call(Command::UpdateSpeedups {
            tenant,
            speedup: speedup.to_vec(),
        })? {
            Response::SpeedupsUpdated { .. } => Ok(()),
            other => Err(unexpected("SpeedupsUpdated", &other)),
        }
    }

    /// Submits a job, returning its id.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn submit_job(
        &mut self,
        tenant: u64,
        model: &str,
        workers: usize,
        total_work: f64,
    ) -> ClientResult<u64> {
        match self.call(Command::SubmitJob {
            tenant,
            model: model.to_string(),
            workers,
            total_work,
        })? {
            Response::JobSubmitted { job, .. } => Ok(job),
            other => Err(unexpected("JobSubmitted", &other)),
        }
    }

    /// Force-finishes a job.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn finish_job(&mut self, tenant: u64, job: u64) -> ClientResult<()> {
        match self.call(Command::JobFinished { tenant, job })? {
            Response::JobFinished { .. } => Ok(()),
            other => Err(unexpected("JobFinished", &other)),
        }
    }

    /// Adds a host, returning its stable handle.  The handle stays valid for
    /// the host's whole lifetime — other hosts joining or leaving never
    /// renumber it.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn add_host(&mut self, gpu_type: usize, num_gpus: usize) -> ClientResult<u64> {
        match self.call(Command::AddHost { gpu_type, num_gpus })? {
            Response::HostAdded { host } => Ok(host),
            other => Err(unexpected("HostAdded", &other)),
        }
    }

    /// Removes a host by stable handle.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn remove_host(&mut self, host: u64) -> ClientResult<()> {
        match self.call(Command::RemoveHost { handle: host })? {
            Response::HostRemoved { .. } => Ok(()),
            other => Err(unexpected("HostRemoved", &other)),
        }
    }

    /// Moves a tenant to another shard, returning its re-minted handle.  The
    /// old handle keeps working (the coordinator forwards it).
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`]; a bare shard core rejects the command.
    pub fn migrate_tenant(&mut self, tenant: u64, shard: usize) -> ClientResult<u64> {
        match self.call(Command::MigrateTenant { tenant, shard })? {
            Response::TenantMigrated { tenant, .. } => Ok(tenant),
            other => Err(unexpected("TenantMigrated", &other)),
        }
    }

    /// Runs one rebalancing pass, returning the plan the coordinator
    /// executed.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`]; a bare shard core rejects the command.
    pub fn rebalance(&mut self) -> ClientResult<RebalanceReport> {
        match self.call(Command::Rebalance)? {
            Response::Rebalanced(report) => Ok(report),
            other => Err(unexpected("Rebalanced", &other)),
        }
    }

    /// Runs one scheduling round.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn tick(&mut self) -> ClientResult<RoundSummary> {
        match self.call(Command::Tick)? {
            Response::RoundCompleted(summary) => Ok(summary),
            other => Err(unexpected("RoundCompleted", &other)),
        }
    }

    /// Reads the metrics registry.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn metrics(&mut self) -> ClientResult<MetricsReport> {
        match self.call(Command::Metrics)? {
            Response::Metrics(report) => Ok(report),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Takes a snapshot of the full service state.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn snapshot(&mut self) -> ClientResult<String> {
        match self.call(Command::Snapshot)? {
            Response::Snapshot { snapshot } => Ok(snapshot),
            other => Err(unexpected("Snapshot", &other)),
        }
    }

    /// Replaces the daemon's state with a snapshot.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn restore(&mut self, snapshot: &str) -> ClientResult<usize> {
        match self.call(Command::Restore {
            snapshot: snapshot.to_string(),
        })? {
            Response::Restored { tenants } => Ok(tenants),
            other => Err(unexpected("Restored", &other)),
        }
    }

    /// Probes daemon status.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn status(&mut self) -> ClientResult<StatusReport> {
        match self.call(Command::Status)? {
            Response::Status(report) => Ok(report),
            other => Err(unexpected("Status", &other)),
        }
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::call`].
    pub fn shutdown(&mut self) -> ClientResult<()> {
        match self.call(Command::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} response, got {got:?}"))
}
