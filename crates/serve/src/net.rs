//! The TCP front-end: a [`ModelRegistry`] behind a listener speaking
//! the [`protocol`](crate::protocol) frames, plus the matching blocking
//! [`Client`].
//!
//! Built on `std::net` only (the workspace is offline — no async
//! runtime, no HTTP stack). One thread accepts; each connection gets a
//! handler thread running a strict request→response loop, so a
//! connection has at most one request in flight and responses can never
//! interleave. Concurrency comes from opening more connections — they
//! all route into the same per-model bounded queues, where micro-batch
//! coalescing happens exactly as for in-process callers.
//!
//! Three behaviors are deliberate:
//!
//! * **Overload is an answer, not a stall.** Inference uses the
//!   shed-load [`try_submit`](crate::ModelServer::try_submit) path: a
//!   full queue answers [`Response::Overloaded`] immediately and the
//!   client owns the retry policy. A networked caller can always
//!   distinguish "the box is busy" from "the box is gone".
//! * **Malformed bytes end the connection, typed.** The server answers
//!   [`ErrorCode::Malformed`] and closes — after a framing error the
//!   stream position cannot be trusted, so resynchronizing would be a
//!   guess. Other errors (unknown model, wrong input length) are
//!   per-request and leave the connection open.
//! * **Shutdown drains.** A SHUTDOWN frame (or
//!   [`NetServer::request_shutdown`]) stops the accept loop, which then
//!   shuts the read half of every open connection. Handlers block in
//!   plain reads (no timeout, no poll): an idle one wakes at once with
//!   end-of-stream and closes; one with a request in flight still writes
//!   its response over the open write half, then closes without reading
//!   another frame. Last, each resident model's queue drains — every
//!   accepted request is answered before the process lets go.

use std::fmt;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, OutputReport, Request, Response, StatsReport,
};
use crate::registry::{ModelRegistry, RegistryError};
use crate::server::{RequestError, ServerError, ServerStats, SubmitError, SubmitOptions};

use eie_core::fixed::Q8p8;

/// Connection-level policy of a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetPolicy {
    /// How long one response write may sit blocked on a full socket
    /// buffer before the client is judged slow and evicted (connection
    /// closed, [`ServerStats::slow_client_evictions`] counted). A
    /// handler thread is a finite resource; a peer that stops reading
    /// must not pin one forever.
    pub write_grace: Duration,
}

impl Default for NetPolicy {
    fn default() -> Self {
        Self {
            write_grace: Duration::from_secs(2),
        }
    }
}

impl NetPolicy {
    /// Sets the write-path grace period.
    pub fn with_write_grace(mut self, write_grace: Duration) -> Self {
        assert!(!write_grace.is_zero(), "write_grace must be non-zero");
        self.write_grace = write_grace;
        self
    }
}

/// A fired-once shutdown latch: pollable without blocking (handlers)
/// and waitable without spinning ([`NetServer::wait_for_shutdown`]).
#[derive(Debug, Default)]
struct ShutdownSignal {
    fired: AtomicBool,
    lock: Mutex<bool>,
    cv: Condvar,
}

impl ShutdownSignal {
    fn fire(&self) {
        self.fired.store(true, Ordering::SeqCst);
        let mut fired = self.lock.lock().expect("shutdown signal poisoned");
        *fired = true;
        self.cv.notify_all();
    }

    fn is_fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    fn wait(&self) {
        let mut fired = self.lock.lock().expect("shutdown signal poisoned");
        while !*fired {
            fired = self.cv.wait(fired).expect("shutdown signal poisoned");
        }
    }
}

/// Shared context every accept/handler thread carries.
#[derive(Debug)]
struct Ctx {
    registry: Arc<ModelRegistry>,
    shutdown: Arc<ShutdownSignal>,
    addr: SocketAddr,
    policy: NetPolicy,
    /// Connections closed because the peer stopped reading.
    slow_evicted: AtomicU64,
    /// Handler threads that panicked (their join errors are caught in
    /// the accept loop and surfaced as
    /// [`ServerError::HandlerPanicked`]).
    handler_panics: AtomicUsize,
}

impl Ctx {
    /// Fires the shutdown signal and pokes the (possibly blocked)
    /// accept loop awake with a throwaway self-connection.
    fn begin_shutdown(&self) {
        self.shutdown.fire();
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running network serving node: TCP listener + accept loop +
/// per-connection handlers, all routing through one [`ModelRegistry`].
///
/// # Example
///
/// ```
/// use eie_core::nn::zoo::random_sparse;
/// use eie_core::{CompiledModel, EieConfig};
/// use eie_serve::protocol::Response;
/// use eie_serve::{Client, ModelRegistry, NetServer, ServerConfig};
///
/// let w = random_sparse(16, 12, 0.25, 7);
/// let model = CompiledModel::compile_layer(EieConfig::default().with_num_pes(4), &w);
/// let registry = ModelRegistry::new(ServerConfig::default().with_max_wait_us(500));
/// registry.register_model("toy", &model).unwrap();
///
/// let server = NetServer::bind("127.0.0.1:0", registry).unwrap();
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// match client.infer("toy", &vec![0.5; 12]).unwrap() {
///     Response::Output(out) => assert_eq!(out.outputs.len(), 16),
///     other => panic!("expected an output, got {other:?}"),
/// }
/// client.shutdown_server().unwrap();
/// let stats = server.stop();
/// assert_eq!(stats.requests, 1);
/// ```
#[derive(Debug)]
pub struct NetServer {
    ctx: Arc<Ctx>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections for `registry`'s models.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener.
    pub fn bind(addr: impl ToSocketAddrs, registry: ModelRegistry) -> io::Result<Self> {
        Self::bind_with_policy(addr, registry, NetPolicy::default())
    }

    /// [`NetServer::bind`] with an explicit connection-level
    /// [`NetPolicy`].
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener.
    pub fn bind_with_policy(
        addr: impl ToSocketAddrs,
        registry: ModelRegistry,
        policy: NetPolicy,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let ctx = Arc::new(Ctx {
            registry: Arc::new(registry),
            shutdown: Arc::new(ShutdownSignal::default()),
            addr: listener.local_addr()?,
            policy,
            slow_evicted: AtomicU64::new(0),
            handler_panics: AtomicUsize::new(0),
        });
        let accept_ctx = Arc::clone(&ctx);
        let accept = thread::Builder::new()
            .name("eie-net-accept".into())
            .spawn(move || accept_loop(listener, &accept_ctx))
            .expect("spawn accept thread");
        Ok(Self {
            ctx,
            accept: Some(accept),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// The registry this node serves from.
    pub fn registry(&self) -> &ModelRegistry {
        &self.ctx.registry
    }

    /// True once shutdown has been requested (by a SHUTDOWN frame or
    /// [`request_shutdown`](Self::request_shutdown)).
    pub fn is_shutting_down(&self) -> bool {
        self.ctx.shutdown.is_fired()
    }

    /// Initiates shutdown without blocking: stops accepting, lets
    /// handlers drain. Idempotent. Follow with [`stop`](Self::stop) to
    /// join and collect final statistics.
    pub fn request_shutdown(&self) {
        self.ctx.begin_shutdown();
    }

    /// Blocks until shutdown is requested — the serve-forever body of
    /// `eie serve --listen`.
    pub fn wait_for_shutdown(&self) {
        self.ctx.shutdown.wait();
    }

    /// Shuts down (idempotent), joins the accept loop and every
    /// connection handler, drains every resident model, and returns the
    /// merged lifetime [`ServerStats`]. A handler (or even the accept
    /// loop) having panicked does not panic here: the join error is
    /// caught, the rest of the node drains cleanly, and the failure is
    /// surfaced typed as [`ServerError::HandlerPanicked`] in
    /// [`ServerStats::errors`].
    pub fn stop(mut self) -> ServerStats {
        self.ctx.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            if accept.join().is_err() {
                self.ctx.handler_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut stats = self.ctx.registry.drain();
        stats.slow_client_evictions = self.ctx.slow_evicted.load(Ordering::Relaxed);
        let panicked = self.ctx.handler_panics.load(Ordering::Relaxed);
        if panicked > 0 {
            stats.errors.push(ServerError::HandlerPanicked {
                connections: panicked,
            });
        }
        stats
    }
}

impl Drop for NetServer {
    /// Dropping without [`stop`](Self::stop) still shuts down cleanly;
    /// only the final statistics are lost. Join failures are swallowed
    /// (there is nowhere left to report them).
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.ctx.begin_shutdown();
            let _ = accept.join();
        }
    }
}

fn accept_loop(listener: TcpListener, ctx: &Arc<Ctx>) {
    // Each handler owns its stream; the loop keeps a weak handle to it,
    // so a closed connection still closes its socket on handler exit.
    let mut conns: Vec<(Weak<TcpStream>, JoinHandle<()>)> = Vec::new();
    // Joins finished handlers (all of them once draining) so a
    // long-lived node doesn't accumulate one parked JoinHandle per
    // connection ever served — counting the ones that panicked instead
    // of propagating (one broken connection must not take the node
    // down).
    let reap = |conns: &mut Vec<(Weak<TcpStream>, JoinHandle<()>)>, all: bool| {
        let (done, kept) = std::mem::take(conns)
            .into_iter()
            .partition(|(_, handler)| all || handler.is_finished());
        *conns = kept;
        for (_, handler) in done {
            if handler.join().is_err() {
                ctx.handler_panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    for stream in listener.incoming() {
        if ctx.shutdown.is_fired() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let stream = Arc::new(stream);
        let weak = Arc::downgrade(&stream);
        let ctx_conn = Arc::clone(ctx);
        let handler = thread::Builder::new()
            .name("eie-net-conn".into())
            .spawn(move || handle_connection(&stream, &ctx_conn))
            .expect("spawn connection handler");
        conns.push((weak, handler));
        reap(&mut conns, false);
    }
    // Drain: closing each read half ends an idle handler's blocking
    // read with EOF; the write half stays open, so a response still
    // being computed goes out before its handler exits.
    for stream in conns.iter().filter_map(|(weak, _)| weak.upgrade()) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    reap(&mut conns, true);
}

/// One connection's request→response loop. Returning closes the stream.
fn handle_connection(mut stream: &TcpStream, ctx: &Ctx) {
    if let Some(plan) = ctx.registry.fault_plan() {
        if plan.next_connection_panics() {
            panic!("injected connection-handler panic");
        }
    }
    // The write timeout is the slow-client grace: a peer that stops
    // reading long enough to block a response write this long gets
    // evicted instead of pinning this handler thread.
    if stream
        .set_write_timeout(Some(ctx.policy.write_grace))
        .is_err()
    {
        return;
    }
    loop {
        // Draining: serve no further frame (Linux still delivers bytes
        // that arrive after the read half closed). The FIN goes out
        // ahead of any reset the final close sends for unread bytes, so
        // the peer reads a clean end of stream.
        if ctx.shutdown.is_fired() {
            let _ = stream.shutdown(Shutdown::Write);
            return;
        }
        let body = match read_frame(&mut stream) {
            Ok(Some(body)) => body,
            // Peer closed between frames, or the drain closed the read
            // half of an idle connection.
            Ok(None) | Err(FrameError::Io(_)) => return,
            // A frame the drain cut in half: close silently, the peer
            // is not malformed.
            Err(_) if ctx.shutdown.is_fired() => return,
            // Framing is broken: answer typed, then close (the stream
            // position cannot be trusted past a malformed frame).
            Err(e) => {
                let _ = respond(
                    stream,
                    &Response::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let request = match Request::from_body(&body) {
            Ok(request) => request,
            Err(e) => {
                let _ = respond(
                    stream,
                    &Response::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        match request {
            Request::Infer {
                model,
                input,
                deadline_us,
                attempt,
            } => {
                // Anchor the relative wire deadline here, at frame
                // receipt, so a cold model load eats into the budget
                // exactly as queueing does.
                let opts = SubmitOptions {
                    deadline: (deadline_us > 0)
                        .then(|| Instant::now() + Duration::from_micros(deadline_us)),
                    attempt: u32::from(attempt),
                };
                let response = serve_infer(ctx, &model, &input, opts);
                if !answer(stream, ctx, &response) {
                    return;
                }
            }
            Request::Stats => {
                let response = Response::Stats(stats_report(ctx));
                if !answer(stream, ctx, &response) {
                    return;
                }
            }
            Request::Shutdown => {
                let _ = respond(stream, &Response::Ok);
                ctx.begin_shutdown();
                return;
            }
        }
    }
}

fn respond(mut stream: &TcpStream, response: &Response) -> Result<(), FrameError> {
    write_frame(&mut stream, &response.to_frame())
}

/// [`respond`], classifying failures: a write that timed out means the
/// peer stopped reading for the whole grace period — the connection is
/// evicted and counted. Returns whether the connection stays usable.
fn answer(stream: &TcpStream, ctx: &Ctx, response: &Response) -> bool {
    match respond(stream, response) {
        Ok(()) => true,
        Err(FrameError::Io(e))
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            ctx.slow_evicted.fetch_add(1, Ordering::Relaxed);
            false
        }
        Err(_) => false,
    }
}

/// Routes one INFER through the registry: acquire (load-on-miss) →
/// shed-load submit → wait → raw-bits output. Every failure mode maps
/// to a typed response; nothing here closes the connection.
fn serve_infer(ctx: &Ctx, model: &str, input: &[f32], opts: SubmitOptions) -> Response {
    if ctx.shutdown.is_fired() {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is draining".into(),
        };
    }
    let server = match ctx.registry.acquire(model) {
        Ok(server) => server,
        Err(e @ RegistryError::UnknownModel { .. }) => {
            return Response::Error {
                code: ErrorCode::UnknownModel,
                message: e.to_string(),
            }
        }
        Err(e) => {
            return Response::Error {
                code: ErrorCode::LoadFailed,
                message: e.to_string(),
            }
        }
    };
    match server.try_submit_with(input, opts) {
        Ok(pending) => match pending.wait() {
            Ok(result) => Response::Output(OutputReport {
                outputs: result.outputs.iter().map(|q| q.raw()).collect(),
                queue_us: result.queue_us,
                latency_us: result.latency_us,
                coalesced: result.coalesced as u32,
                worker: result.worker as u32,
            }),
            Err(e @ RequestError::DeadlineExceeded) => Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: e.to_string(),
            },
            Err(e @ RequestError::WorkerFailed { .. }) => Response::Error {
                code: ErrorCode::WorkerFailed,
                message: e.to_string(),
            },
        },
        Err(SubmitError::QueueFull { depth }) => Response::Overloaded {
            depth: depth as u32,
        },
        Err(e @ SubmitError::ShuttingDown) => Response::Error {
            code: ErrorCode::ShuttingDown,
            message: e.to_string(),
        },
        Err(e @ SubmitError::BadInputLength { .. }) => Response::Error {
            code: ErrorCode::BadInput,
            message: e.to_string(),
        },
        Err(e @ SubmitError::DeadlineExceeded) => Response::Error {
            code: ErrorCode::DeadlineExceeded,
            message: e.to_string(),
        },
        Err(e @ SubmitError::Degraded { .. }) => Response::Error {
            code: ErrorCode::Degraded,
            message: e.to_string(),
        },
    }
}

/// Builds the STATS payload: live serving percentiles merged across
/// resident models + registry occupancy + the fault-tolerance tail,
/// one lock-free-for-routing snapshot.
fn stats_report(ctx: &Ctx) -> StatsReport {
    let registry = &ctx.registry;
    let (serving, queued) = registry.serving_snapshot();
    let occupancy = registry.stats();
    StatsReport {
        requests: serving.requests,
        batches: serving.batches,
        max_coalesced: serving.max_coalesced as u32,
        queue_depth: queued as u32,
        models_registered: occupancy.registered as u32,
        models_resident: occupancy.resident as u32,
        resident_bytes: occupancy.resident_bytes as u64,
        budget_bytes: if occupancy.budget_bytes == usize::MAX {
            u64::MAX
        } else {
            occupancy.budget_bytes as u64
        },
        loads: occupancy.loads,
        evictions: occupancy.evictions,
        p50_us: serving.p50(),
        p95_us: serving.p95(),
        p99_us: serving.p99(),
        mean_queue_us: serving.mean_queue_us(),
        frames_per_second: serving.frames_per_second(),
        accepted: serving.accepted,
        shed: serving.shed,
        expired: serving.expired,
        failed: serving.failed,
        retries_upstream: serving.retries_upstream,
        worker_restarts: serving.worker_restarts,
        degraded: serving.degraded as u32,
        slow_client_evictions: ctx.slow_evicted.load(Ordering::Relaxed),
    }
}

/// Why a [`Client`] call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// The server closed the connection before answering.
    Disconnected,
    /// The server answered with a response kind the typed helper did
    /// not expect (e.g. an error frame where [`Client::stats`] wanted
    /// statistics).
    Unexpected {
        /// What the helper was waiting for.
        expected: &'static str,
        /// The response actually received.
        got: Box<Response>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "client transport failed: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection mid-request"),
            ClientError::Unexpected { expected, got } => {
                write!(f, "expected {expected}, server answered {got:?}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// Connect/read/write timeouts of a [`Client`]. `None` means block
/// indefinitely (the pre-fault-tolerance behavior, and the default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// Bound on establishing the TCP connection.
    pub connect: Option<Duration>,
    /// Bound on each blocking read (a response that takes longer
    /// surfaces as a timed-out [`ClientError::Frame`]).
    pub read: Option<Duration>,
    /// Bound on each blocking write.
    pub write: Option<Duration>,
}

impl ClientTimeouts {
    /// One bound for connect, read and write alike.
    pub fn all(timeout: Duration) -> Self {
        Self {
            connect: Some(timeout),
            read: Some(timeout),
            write: Some(timeout),
        }
    }
}

/// A typed retry policy: how many attempts a [`Client::infer_retrying`]
/// call may spend, and how it backs off between them. Backoff is
/// exponential with **bounded deterministic jitter** — the delay for
/// attempt `n` is `base · 2ⁿ` scaled by a factor in `[0.5, 1.0]` drawn
/// from a seeded xorshift stream, capped at `max_backoff` — so two runs
/// with the same seed retry on an identical schedule (the chaos suite
/// depends on that), while a fleet of clients with different seeds
/// still decorrelates.
///
/// Only **idempotent-safe** failures are retried: connect refused,
/// timeouts, disconnects, OVERLOADED, and WORKER_FAILED (inference is
/// pure, so re-running it is safe). Typed model errors — unknown model,
/// bad input, malformed, deadline exceeded, degraded, shutting down —
/// never retry: the retry would deterministically fail again or mask a
/// caller bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first one included (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff.
    pub max_backoff: Duration,
    /// Seed of the jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// No retries: exactly one attempt.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Sets the attempt budget.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        assert!(max_attempts > 0, "a call is at least one attempt");
        self.max_attempts = max_attempts;
        self
    }

    /// Sets the jitter seed.
    pub fn with_jitter_seed(mut self, jitter_seed: u64) -> Self {
        self.jitter_seed = jitter_seed;
        self
    }

    /// The delay before retry number `retry` (0-based), advancing the
    /// caller-held jitter state.
    fn backoff(&self, retry: u32, jitter: &mut u64) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << retry.min(16));
        // xorshift64* step; map to a factor in [0.5, 1.0].
        let mut x = *jitter;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *jitter = x;
        let unit = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let scaled = exp.mul_f64(0.5 + 0.5 * unit);
        scaled.min(self.max_backoff)
    }
}

/// What one [`Client::infer_retrying`] call spent and absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Retries made (`attempts - 1`).
    pub retries: u32,
    /// OVERLOADED answers absorbed by retrying.
    pub overloaded: u32,
    /// WORKER_FAILED answers absorbed by retrying.
    pub worker_failed: u32,
    /// Transport failures (refused / timeout / disconnect) absorbed by
    /// reconnecting and retrying.
    pub transport_retries: u32,
    /// Total backoff slept.
    pub backoff: Duration,
    /// Whether the final answer was a success that needed ≥ 1 retry.
    pub recovered: bool,
}

/// A blocking connection to a [`NetServer`]: one request in flight at a
/// time, matching the server's per-connection loop. Open more clients
/// for concurrency.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// The resolved peer, kept for reconnect-on-retry.
    addr: SocketAddr,
    timeouts: ClientTimeouts,
    retry: RetryPolicy,
    /// Jitter state, advanced per backoff.
    jitter: u64,
}

impl Client {
    /// Connects to a serving node with no timeouts and no retries.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the connect.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, ClientTimeouts::default())
    }

    /// Connects with explicit [`ClientTimeouts`]. Compose with
    /// [`Client::with_retry_policy`] for the full resilience stack.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from resolving or connecting (every resolved
    /// candidate address is tried before giving up).
    pub fn connect_with(addr: impl ToSocketAddrs, timeouts: ClientTimeouts) -> io::Result<Self> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match Self::open(candidate, timeouts) {
                Ok(stream) => {
                    let retry = RetryPolicy::none();
                    return Ok(Self {
                        stream,
                        addr: candidate,
                        timeouts,
                        jitter: retry.jitter_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                        retry,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn open(addr: SocketAddr, timeouts: ClientTimeouts) -> io::Result<TcpStream> {
        let stream = match timeouts.connect {
            Some(bound) => TcpStream::connect_timeout(&addr, bound)?,
            None => TcpStream::connect(addr)?,
        };
        // Serving frames are small and latency-bound.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeouts.read)?;
        stream.set_write_timeout(timeouts.write)?;
        Ok(stream)
    }

    /// Installs the [`RetryPolicy`] used by
    /// [`Client::infer_retrying`].
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.jitter = retry.jitter_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        self.retry = retry;
        self
    }

    /// Drops the current stream and dials the same peer again.
    fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Self::open(self.addr, self.timeouts)?;
        Ok(())
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Frame`] on transport/framing failure,
    /// [`ClientError::Disconnected`] if the server closed instead of
    /// answering.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.to_frame())?;
        let body = read_frame(&mut self.stream)?.ok_or(ClientError::Disconnected)?;
        Ok(Response::from_body(&body)?)
    }

    /// Runs one input through the named model. The returned
    /// [`Response`] is the full typed answer — output, overloaded, or
    /// error — so callers own the retry policy.
    ///
    /// # Errors
    ///
    /// Transport-level failures only (see [`Client::request`]);
    /// server-side refusals arrive as `Ok(Response::...)`.
    pub fn infer(&mut self, model: &str, input: &[f32]) -> Result<Response, ClientError> {
        self.request(&Request::infer(model, input.to_vec()))
    }

    /// [`Client::infer`] with a deadline (remaining budget; `None` = no
    /// deadline) and an attempt number for the server's upstream-retry
    /// accounting. The wire carries whole microseconds and reads 0 as
    /// "no deadline", so a budget under 1 µs, spent or not, is sent as
    /// 1 µs.
    ///
    /// # Errors
    ///
    /// Transport-level failures only.
    pub fn infer_with(
        &mut self,
        model: &str,
        input: &[f32],
        deadline: Option<Duration>,
        attempt: u32,
    ) -> Result<Response, ClientError> {
        self.request(&Request::Infer {
            model: model.into(),
            input: input.to_vec(),
            deadline_us: deadline.map_or(0, |d| d.as_micros().clamp(1, u64::MAX as u128) as u64),
            attempt: attempt.min(u8::MAX as u32) as u8,
        })
    }

    /// Whether a failed call may be retried on a fresh connection:
    /// refused/reset/timeout transports and mid-frame disconnects
    /// qualify (the server never half-executes — inference is pure and
    /// a request is only served once fully read).
    fn transport_retryable(error: &ClientError) -> bool {
        match error {
            ClientError::Disconnected => true,
            ClientError::Frame(FrameError::Io(e)) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut
            ),
            // The stream died mid-frame; the response is unrecoverable
            // but the request is safe to resend.
            ClientError::Frame(FrameError::Truncated { .. }) => true,
            _ => false,
        }
    }

    /// [`Client::infer_with`] under the installed [`RetryPolicy`]:
    /// retries idempotent-safe failures (transport errors — with a
    /// reconnect — OVERLOADED, WORKER_FAILED) with deterministic
    /// exponential backoff, passes the attempt number upstream, and
    /// reports what the call absorbed in [`CallStats`]. Typed model
    /// errors and DEADLINE_EXCEEDED return immediately.
    ///
    /// # Errors
    ///
    /// The last transport failure, once the attempt budget is spent.
    pub fn infer_retrying(
        &mut self,
        model: &str,
        input: &[f32],
        deadline: Option<Duration>,
    ) -> Result<(Response, CallStats), ClientError> {
        let policy = self.retry;
        let mut stats = CallStats::default();
        loop {
            let attempt = stats.attempts;
            stats.attempts += 1;
            let outcome = self.infer_with(model, input, deadline, attempt);
            let retryable = match &outcome {
                Ok(Response::Overloaded { .. }) => {
                    stats.overloaded += 1;
                    true
                }
                Ok(Response::Error { code, .. }) if code.is_retryable() => {
                    stats.worker_failed += 1;
                    true
                }
                Ok(_) => false,
                Err(e) if Self::transport_retryable(e) => {
                    stats.transport_retries += 1;
                    true
                }
                Err(_) => false,
            };
            if !retryable || stats.attempts >= policy.max_attempts {
                stats.recovered = stats.retries > 0 && matches!(outcome, Ok(Response::Output(_)));
                return outcome.map(|response| (response, stats));
            }
            stats.retries += 1;
            let delay = policy.backoff(stats.retries - 1, &mut self.jitter);
            stats.backoff += delay;
            thread::sleep(delay);
            if outcome.is_err() {
                // The old stream is unusable (or the write may have
                // half-landed); resend on a fresh connection. A failed
                // reconnect is itself retryable — loop again until the
                // budget runs out.
                if let Err(e) = self.reconnect() {
                    let error = ClientError::Frame(FrameError::Io(e));
                    if stats.attempts >= policy.max_attempts || !Self::transport_retryable(&error) {
                        return Err(error);
                    }
                }
            }
        }
    }

    /// Convenience: [`infer`](Self::infer), converting the raw Q8.8
    /// output words back to typed activations. Non-output answers
    /// surface as [`ClientError::Unexpected`].
    ///
    /// # Errors
    ///
    /// Transport failures, plus [`ClientError::Unexpected`] for
    /// overload or error responses.
    pub fn infer_outputs(&mut self, model: &str, input: &[f32]) -> Result<Vec<Q8p8>, ClientError> {
        match self.infer(model, input)? {
            Response::Output(out) => {
                Ok(out.outputs.iter().map(|&raw| Q8p8::from_raw(raw)).collect())
            }
            other => Err(ClientError::Unexpected {
                expected: "an inference output",
                got: Box::new(other),
            }),
        }
    }

    /// Fetches the server's live statistics.
    ///
    /// # Errors
    ///
    /// Transport failures, plus [`ClientError::Unexpected`] if the
    /// server answered anything but a statistics frame.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            other => Err(ClientError::Unexpected {
                expected: "a statistics report",
                got: Box::new(other),
            }),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Transport failures, plus [`ClientError::Unexpected`] if the
    /// server answered anything but an acknowledgement.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::Unexpected {
                expected: "a shutdown acknowledgement",
                got: Box::new(other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use eie_core::nn::zoo::random_sparse;
    use eie_core::{CompiledModel, EieConfig};

    fn toy_registry() -> ModelRegistry {
        let w = random_sparse(16, 12, 0.25, 3);
        let model = CompiledModel::compile_layer(EieConfig::default().with_num_pes(4), &w);
        let registry = ModelRegistry::new(ServerConfig::default().with_max_wait_us(500));
        registry.register_model("toy", &model).unwrap();
        registry
    }

    #[test]
    fn unknown_model_and_bad_input_keep_the_connection_open() {
        let server = NetServer::bind("127.0.0.1:0", toy_registry()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        match client.infer("nope", &[0.0; 12]).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownModel),
            other => panic!("expected unknown-model error, got {other:?}"),
        }
        match client.infer("toy", &[0.0; 5]).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadInput),
            other => panic!("expected bad-input error, got {other:?}"),
        }
        // Same connection still serves real work afterwards.
        let outputs = client.infer_outputs("toy", &[0.25; 12]).unwrap();
        assert_eq!(outputs.len(), 16);

        let stats = server.stop();
        assert_eq!(stats.requests, 1, "only the valid request was served");
    }

    #[test]
    fn malformed_frame_gets_typed_error_then_close() {
        use std::io::Write;

        let server = NetServer::bind("127.0.0.1:0", toy_registry()).unwrap();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        // A frame whose body claims the right magic but a bogus version.
        let mut body = Vec::from(crate::protocol::FRAME_MAGIC);
        body.push(99);
        body.push(0x01);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        raw.write_all(&wire).unwrap();
        raw.flush().unwrap();

        let reply = read_frame(&mut raw).unwrap().expect("typed error frame");
        match Response::from_body(&reply).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Malformed);
                assert!(message.contains("version"), "message was {message:?}");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
        // ...and the server closes the stream.
        assert!(matches!(read_frame(&mut raw), Ok(None)));
        server.stop();
    }

    #[test]
    fn stats_reflect_registry_occupancy() {
        let server = NetServer::bind("127.0.0.1:0", toy_registry()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let before = client.stats().unwrap();
        assert_eq!(before.models_registered, 1);
        assert_eq!(before.models_resident, 0, "nothing loads until routed to");
        assert_eq!(before.budget_bytes, u64::MAX);

        client.infer_outputs("toy", &[0.5; 12]).unwrap();
        let after = client.stats().unwrap();
        assert_eq!(after.models_resident, 1);
        assert_eq!(after.requests, 1);
        assert_eq!(after.loads, 1);
        assert!(after.resident_bytes > 0);
        server.stop();
    }

    #[test]
    fn shutdown_frame_stops_the_node() {
        let server = NetServer::bind("127.0.0.1:0", toy_registry()).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        client.infer_outputs("toy", &[1.0; 12]).unwrap();
        client.shutdown_server().unwrap();

        server.wait_for_shutdown();
        assert!(server.is_shutting_down());
        let stats = server.stop();
        assert_eq!(stats.requests, 1);

        // The listener is gone: a fresh connection gets refused or
        // dropped without an answer.
        match Client::connect(addr) {
            Err(_) => {}
            Ok(mut late) => assert!(late.stats().is_err()),
        }
    }
}
