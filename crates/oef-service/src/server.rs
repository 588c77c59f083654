//! Threaded std-TCP front end for the scheduler service.
//!
//! Architecture: one non-blocking accept loop, one connection-handler thread
//! per client, and exactly one worker thread that owns the command core and
//! drains the bounded command queue.  Handlers park on a per-request response
//! slot while their command waits its turn, so the core stays single-threaded
//! (no locks around cluster state) while any number of clients talk to the
//! daemon concurrently.  When the queue is full, handlers block briefly and
//! then shed load with a `Busy` reply — the wire-level face of the queue's
//! backpressure.
//!
//! The server is generic over [`CommandHandler`], the one seam between the
//! transport and the scheduling state machine: a plain [`SchedulerService`]
//! serves a single shard, while a federation coordinator (`oef-shard`) fans
//! the same wire protocol out over many shards — the listener, queue and
//! worker threading are identical either way.

use crate::command::{Command, ErrorCode, Reply, Request, Response, WireTraceContext};
use crate::queue::{BoundedQueue, PushError};
use crate::service::SchedulerService;
use oef_trace::{PendingTrace, TraceContext, Tracer};
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection handler blocks on a full queue before replying
/// `Busy`.
const ENQUEUE_TIMEOUT: Duration = Duration::from_secs(2);
/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// How long [`Server::join`] waits for in-flight reply writes to flush.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// A command-processing core the [`Server`] can own: anything that turns one
/// [`Command`] into one [`Response`] on a single worker thread.
///
/// Implementations signal shutdown by returning [`Response::ShuttingDown`];
/// the server then closes the queue, refuses the backlog and exits its
/// worker.  `queue_depth` is the number of commands still waiting behind the
/// one being applied (observability only).
pub trait CommandHandler: Send + 'static {
    /// Executes one command against the core.  Every outcome is a
    /// [`Response`] — errors are data, not panics.
    fn apply(&mut self, command: Command, queue_depth: usize) -> Response;

    /// Capacity of the bounded command queue the server should place in
    /// front of this core.
    fn queue_capacity(&self) -> usize;

    /// Called exactly once on the worker thread after the last command has
    /// been applied, on every exit path (`Shutdown` command or
    /// [`Server::request_stop`]).  Durable cores flush and checkpoint here —
    /// a clean shutdown must never need journal-tail replay.  The default
    /// does nothing.
    fn on_shutdown(&mut self) {}

    /// Hooks the handler's metric cells into a shared Prometheus exposition
    /// registry, called once before the daemon starts serving when a
    /// `/metrics` listener is configured.  The default registers nothing —
    /// handlers stay valid without observability.
    fn attach_observability(&mut self, _registry: &oef_obs::Registry) {}

    /// Hooks the handler into a shared per-tenant solve-cost registry (the
    /// `GET /attrib` explainer and the `oef_tenant_solve_cost` family).
    /// The default ignores it — cores without an LP solver have nothing to
    /// attribute.
    fn attach_attribution(&mut self, _attrib: &oef_attrib::AttributionRegistry) {}
}

/// State shared between the listener, the worker and connection handlers.
struct Shared {
    /// Set when the daemon stops accepting connections.
    shutdown: AtomicBool,
    /// Replies produced (or owed) but not yet flushed to a socket.  The
    /// process must not exit while this is non-zero, or a client — e.g. the
    /// one whose `Shutdown` triggered the exit — would lose its reply.
    pending_replies: AtomicUsize,
}

/// What the worker hands back through a slot: the response plus — when the
/// command was sampled — the recorded trace, lifted off the worker thread so
/// the connection handler can append the `reply_write` span and finish it
/// into the ring.
type SlotValue = (Response, Option<PendingTrace>);

/// One-shot response slot a connection handler parks on.
type Slot = Arc<(Mutex<Option<SlotValue>>, Condvar)>;

struct WorkItem {
    command: Command,
    /// Trace context the request carried, if any (protocol v2.1).
    trace: Option<TraceContext>,
    /// When the command entered the queue — the worker turns the gap to its
    /// pop into the `queue_wait` span.
    enqueued: Instant,
    slot: Slot,
}

fn fill(slot: &Slot, value: SlotValue) {
    let (lock, condvar) = &**slot;
    *lock
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(value);
    condvar.notify_one();
}

fn wait(slot: &Slot) -> SlotValue {
    let (lock, condvar) = &**slot;
    let mut guard = lock
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    loop {
        if let Some(value) = guard.take() {
            return value;
        }
        guard = condvar
            .wait(guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// A running daemon: listener + worker threads around one [`CommandHandler`]
/// core (a [`SchedulerService`] by default).
pub struct Server<C: CommandHandler = SchedulerService> {
    addr: SocketAddr,
    listener_handle: JoinHandle<()>,
    worker_handle: JoinHandle<C>,
    queue: BoundedQueue<WorkItem>,
    shared: Arc<Shared>,
}

impl<C: CommandHandler> Server<C> {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `service`, untraced.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn spawn(service: C, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::spawn_traced(service, addr, None)
    }

    /// Like [`Self::spawn`], with command tracing: sampled commands (the
    /// tracer's 1-in-N, plus any the client flags) are recorded as span
    /// trees into the tracer's ring.  `None` disables tracing entirely — the
    /// hot path then does no per-command tracing work at all.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn spawn_traced(
        service: C,
        addr: impl ToSocketAddrs,
        tracer: Option<Tracer>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let queue = BoundedQueue::with_capacity(service.queue_capacity());
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            pending_replies: AtomicUsize::new(0),
        });

        let worker_handle = {
            let queue = queue.clone();
            let shared = Arc::clone(&shared);
            let tracer = tracer.clone();
            std::thread::spawn(move || worker_loop(service, &queue, &shared, tracer.as_ref()))
        };

        let listener_handle = {
            let queue = queue.clone();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &queue, &shared, tracer))
        };

        Ok(Self {
            addr: local,
            listener_handle,
            worker_handle,
            queue,
            shared,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a stop without a wire command (signal handling, tests).
    /// Queued commands are still drained before the worker exits.
    pub fn request_stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Waits for the daemon to finish (a `Shutdown` command or
    /// [`Server::request_stop`]) and returns the final service state.
    ///
    /// Connection handlers are detached threads, so this additionally waits —
    /// bounded by a short drain window — until no reply is still being
    /// written; without that, the process could exit before the `Shutdown`
    /// reply reaches its client.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn join(self) -> C {
        let service = self
            .worker_handle
            .join()
            .expect("scheduler worker thread panicked");
        self.listener_handle
            .join()
            .expect("listener thread panicked");
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.shared.pending_replies.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        service
    }
}

fn worker_loop<C: CommandHandler>(
    mut service: C,
    queue: &BoundedQueue<WorkItem>,
    shared: &Arc<Shared>,
    tracer: Option<&Tracer>,
) -> C {
    while let Some(WorkItem {
        command,
        trace,
        enqueued,
        slot,
    }) = queue.pop()
    {
        let depth = queue.len();
        // Queue wait is measured for *every* command: the always-on profiler
        // aggregates it even when this command is not being traced.
        let queue_wait_ns = enqueued.elapsed().as_nanos() as u64;
        oef_trace::profile::record("queue_wait", queue_wait_ns);
        // Sampling decision + recorder install (a no-op returning None when
        // tracing is off or the command is unsampled).  The recorder is
        // thread-local, so the span sites inside `apply` — journal append,
        // solve, … — need no handle threaded through `CommandHandler`.
        let recording = tracer.and_then(|t| t.begin(trace, command.name(), Some(queue_wait_ns)));
        // Contain panics from command processing: a poisoned daemon must
        // fail-stop visibly (structured error, clean shutdown), not leave the
        // panicking client parked forever on its slot with the queue wedged.
        let apply_started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.apply(command, depth)
        }));
        oef_trace::profile::record("apply", apply_started.elapsed().as_nanos() as u64);
        // Lift the recorder off this thread whether apply returned or
        // panicked — a leaked recorder would mis-attribute the next command.
        let pending = match (recording, tracer) {
            (Some(_), Some(t)) => t.take(),
            _ => None,
        };
        let (response, stop) = match outcome {
            Ok(response) => {
                let stop = matches!(response, Response::ShuttingDown);
                (response, stop)
            }
            Err(_) => (
                Response::Error {
                    code: ErrorCode::Internal,
                    message: "command processing panicked; daemon is shutting down".to_string(),
                },
                true,
            ),
        };
        fill(&slot, (response, pending));
        if stop {
            shared.shutdown.store(true, Ordering::SeqCst);
            queue.close();
            // Refuse what is still queued so no handler blocks forever on an
            // unfilled slot.
            while let Some(item) = queue.pop() {
                fill(
                    &item.slot,
                    (
                        Response::Error {
                            code: ErrorCode::ShuttingDown,
                            message: "daemon is shutting down".to_string(),
                        },
                        None,
                    ),
                );
            }
            break;
        }
    }
    // Both exit paths land here with the queue drained: flush whatever the
    // core keeps durable before the process can exit.
    service.on_shutdown();
    service
}

fn accept_loop(
    listener: &TcpListener,
    queue: &BoundedQueue<WorkItem>,
    shared: &Arc<Shared>,
    tracer: Option<Tracer>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let queue = queue.clone();
                let shared = Arc::clone(shared);
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    // A dead client is not a daemon error; drop the
                    // connection and keep serving the rest.
                    let _ = serve_connection(stream, &queue, &shared, tracer.as_ref());
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => return,
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    queue: &BoundedQueue<WorkItem>,
    shared: &Arc<Shared>,
    tracer: Option<&Tracer>,
) -> std::io::Result<()> {
    // Replies are single small lines; Nagle would add ~40ms of latency to
    // every request/response round trip.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    // Every reply is encoded into this one buffer, so a tick's O(tenants)
    // line is not regrown from empty on every round.  It keeps the capacity
    // of the connection's largest reply (a snapshot, say) until it closes.
    let mut reply_line = String::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        // From here until the reply is flushed (or fails), this connection
        // owes its client a line; `Server::join` drains the counter before
        // letting the process exit.
        shared.pending_replies.fetch_add(1, Ordering::SeqCst);
        let (reply, pending) = match serde_json::from_str::<Request>(&line) {
            Err(e) => (
                Reply::new(
                    0,
                    Response::Error {
                        code: ErrorCode::InvalidArgument,
                        message: format!("malformed request: {e}"),
                    },
                ),
                None,
            ),
            Ok(request) => {
                let slot: Slot = Arc::new((Mutex::new(None), Condvar::new()));
                let item = WorkItem {
                    command: request.command,
                    trace: request.trace.as_ref().map(WireTraceContext::to_context),
                    enqueued: Instant::now(),
                    slot: Arc::clone(&slot),
                };
                let (response, pending) = match queue.push_timeout(item, ENQUEUE_TIMEOUT) {
                    Ok(()) => wait(&slot),
                    Err((_, PushError::Full)) => (
                        Response::Error {
                            code: ErrorCode::Busy,
                            message: "command queue full, retry later".to_string(),
                        },
                        None,
                    ),
                    Err((_, PushError::Closed)) => (
                        Response::Error {
                            code: ErrorCode::ShuttingDown,
                            message: "daemon is shutting down".to_string(),
                        },
                        None,
                    ),
                };
                // The reply carries the daemon-side trace id: the recorded
                // one when this command was sampled, else the caller's own id
                // echoed back (so a sampled *client* can still correlate).
                let mut reply = Reply::new(request.id, response);
                reply.trace_id = pending
                    .as_ref()
                    .map(|p| oef_trace::format_id(p.trace_id()))
                    .or_else(|| request.trace.map(|t| t.trace_id));
                (reply, pending)
            }
        };
        let write_started = Instant::now();
        // One `write_all` of line + terminator: the socket is unbuffered, so
        // a separate newline write would be a second syscall (and, with
        // Nagle off, a second segment) per reply.
        reply_line.clear();
        let written = reply
            .write_json(&mut reply_line)
            .map_err(std::io::Error::other)
            .and_then(|()| {
                reply_line.push('\n');
                writer.write_all(reply_line.as_bytes())
            });
        let write_ns = write_started.elapsed().as_nanos() as u64;
        oef_trace::profile::record("reply_write", write_ns);
        if let (Some(tracer), Some(pending)) = (tracer, pending) {
            tracer.finish(pending, Some(write_ns));
        }
        shared.pending_replies.fetch_sub(1, Ordering::SeqCst);
        written?;
    }
    Ok(())
}
