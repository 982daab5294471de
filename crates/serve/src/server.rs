//! The model server: one `.eie` artifact, N workers, one request queue.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eie_core::backend::host_cores;
use eie_core::compress::{EncodedLayer, LayerPlan, LANE_WIDTH};
use eie_core::fixed::Q8p8;
use eie_core::{
    run_stack_planned, BackendKind, CompiledModel, EieConfig, ModelArtifactError, PlannedLayer,
};

use crate::fault::FaultPlan;
use crate::queue::{MicroBatchQueue, PushError};

/// Serving policy: which backend executes, how many workers run it, and
/// how requests coalesce into micro-batches.
///
/// A non-consuming builder in the house style of
/// [`EieConfig`](eie_core::EieConfig):
///
/// ```
/// use eie_serve::ServerConfig;
/// use eie_core::compress::LANE_WIDTH;
/// use eie_core::BackendKind;
///
/// // The default kernel takes each worker's share of the cores:
/// // `ModelServer::start` resolves `NativeCpu(0)` to
/// // `NativeCpu(max(1, cores / workers))`.
/// assert_eq!(ServerConfig::default().backend, BackendKind::NativeCpu(0));
/// // A full dispatch is one two-stripe lane block: each plan entry
/// // the kernel decodes serves 16 items.
/// assert_eq!(ServerConfig::default().max_batch, 2 * LANE_WIDTH);
/// let cfg = ServerConfig::default()
///     .with_backend(BackendKind::NativeCpu(1))
///     .with_workers(2)
///     .with_max_batch(8)
///     .with_max_wait_us(150)
///     .with_queue_depth(64);
/// assert_eq!(cfg.max_batch, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Backend each worker instantiates. The default, `NativeCpu(0)`,
    /// is resolved once by [`ModelServer::start`] to
    /// `NativeCpu(max(1, cores / workers))` per worker
    /// ([`BackendKind::per_worker`]): the workers split the host's
    /// cores, so a one-worker server fans every dispatch out over all
    /// of them and `workers ≥ cores` keeps one kernel thread each. An
    /// explicit `NativeCpu(t)` is kept as given.
    pub backend: BackendKind,
    /// Worker threads, one [`Backend`](eie_core::Backend) each.
    pub workers: usize,
    /// Most requests one micro-batch may coalesce; defaults to
    /// `2 × LANE_WIDTH` = 16, the largest lane block the native kernel
    /// walks in one pass.
    pub max_batch: usize,
    /// How long a worker holds a short batch open for stragglers, µs.
    /// `0` disables the wait: every pop takes only what is queued.
    pub max_wait_us: u64,
    /// Bound on queued requests; at this depth
    /// [`ModelServer::submit`] blocks and [`ModelServer::try_submit`]
    /// sheds load.
    pub queue_depth: usize,
    /// Worker quarantine-and-respawn cycles the server will pay for
    /// before degrading to shed-load (see the module docs on the fault
    /// model). Counted across all workers.
    pub restart_budget: u32,
    /// Base pause before a quarantined worker resumes claiming work,
    /// µs; doubles per restart (capped at 64×) so a crash-looping
    /// model cannot spin the pool.
    pub restart_backoff_us: u64,
}

/// The default micro-batch cap: `2 × LANE_WIDTH`, the native kernel's
/// largest lane block. A dispatch of more than [`LANE_WIDTH`] items
/// applies each plan entry to two 8-item stripes off one decode, so a
/// full 16 pays for the plan walk once where two dispatches of 8 would
/// pay twice.
const DEFAULT_MAX_BATCH: usize = 2 * LANE_WIDTH;

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            backend: BackendKind::NativeCpu(0),
            workers: 2,
            max_batch: DEFAULT_MAX_BATCH,
            max_wait_us: 200,
            queue_depth: 256,
            restart_budget: 8,
            restart_backoff_us: 500,
        }
    }
}

impl ServerConfig {
    /// Sets the backend each worker runs.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "server needs at least one worker");
        self.workers = workers;
        self
    }

    /// Sets the micro-batch size cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be non-zero");
        self.max_batch = max_batch;
        self
    }

    /// Sets the straggler-collection window, µs (`0` = no wait).
    pub fn with_max_wait_us(mut self, max_wait_us: u64) -> Self {
        self.max_wait_us = max_wait_us;
        self
    }

    /// Sets the bounded queue depth (the backpressure point).
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth == 0`.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "queue_depth must be non-zero");
        self.queue_depth = queue_depth;
        self
    }

    /// Sets the worker restart budget (`0` = the first panic degrades
    /// the server).
    pub fn with_restart_budget(mut self, restart_budget: u32) -> Self {
        self.restart_budget = restart_budget;
        self
    }

    /// Sets the base restart backoff, µs.
    pub fn with_restart_backoff_us(mut self, restart_backoff_us: u64) -> Self {
        self.restart_backoff_us = restart_backoff_us;
        self
    }
}

impl fmt::Display for ServerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {}, batch ≤{}, wait ≤{} µs, queue ≤{}",
            self.workers, self.backend, self.max_batch, self.max_wait_us, self.queue_depth
        )
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity ([`ModelServer::try_submit`]
    /// only; [`ModelServer::submit`] blocks instead).
    QueueFull {
        /// The configured queue depth that was hit.
        depth: usize,
    },
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// The input vector does not match the model's input dimension.
    BadInputLength {
        /// Submitted length.
        got: usize,
        /// The model's input dimension.
        want: usize,
    },
    /// The request's deadline had already lapsed at admission; it was
    /// never queued and no backend slot was spent.
    DeadlineExceeded,
    /// The server spent its restart budget and sheds all load until
    /// evicted or restarted.
    Degraded {
        /// Worker restarts that were paid before degrading.
        restarts: u64,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "request queue full ({depth} pending)")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::BadInputLength { got, want } => {
                write!(f, "input length {got} != model input dimension {want}")
            }
            SubmitError::DeadlineExceeded => {
                write!(f, "deadline expired before admission")
            }
            SubmitError::Degraded { restarts } => {
                write!(
                    f,
                    "server degraded after {restarts} worker restarts; shedding load"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *accepted* request failed: the typed answer
/// [`InferenceResponse::wait`] returns instead of a result. Every
/// accepted request gets exactly one of a result or one of these —
/// worker panics and lapsed deadlines no longer propagate as panics at
/// the dispatch site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The worker executing this request's micro-batch panicked. The
    /// worker was quarantined and respawned; inference is pure, so the
    /// request is safe to retry.
    WorkerFailed {
        /// The panic payload, for diagnostics.
        detail: String,
    },
    /// The request's deadline lapsed while it was queued or held in a
    /// coalescing window; it was dropped before burning a backend slot.
    DeadlineExceeded,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::WorkerFailed { detail } => {
                write!(f, "serving worker panicked: {detail}")
            }
            RequestError::DeadlineExceeded => write!(f, "deadline expired before execution"),
        }
    }
}

impl std::error::Error for RequestError {}

/// A failure the server survived and reports after the fact, carried
/// in [`ServerStats::errors`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Connection handler threads panicked; their connections dropped,
    /// everything else kept serving.
    HandlerPanicked {
        /// How many handlers died this way.
        connections: usize,
    },
    /// Worker threads were lost for good (the thread itself died — not
    /// a quarantined-and-respawned panic, which is counted in
    /// [`ServerStats::worker_restarts`] instead).
    WorkerLost {
        /// How many workers died this way.
        workers: usize,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::HandlerPanicked { connections } => {
                write!(f, "{connections} connection handler(s) panicked")
            }
            ServerError::WorkerLost { workers } => {
                write!(f, "{workers} worker thread(s) lost")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// Per-request serving options beyond the input itself.
///
/// ```
/// use std::time::{Duration, Instant};
/// use eie_serve::SubmitOptions;
///
/// let opts = SubmitOptions::default()
///     .with_deadline(Instant::now() + Duration::from_millis(50));
/// assert!(opts.deadline.is_some());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Answer `DEADLINE_EXCEEDED` instead of executing once this
    /// instant passes. Checked at admission, at coalesce time, and
    /// right before dispatch.
    pub deadline: Option<Instant>,
    /// Retry attempt number (0 = first try); attempts > 0 count into
    /// [`ServerStats::retries_upstream`].
    pub attempt: u32,
}

impl SubmitOptions {
    /// Sets the absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Marks the submission as retry attempt `attempt`.
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }
}

/// The completed result of one served request.
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// Output activations, Q8.8 — bit-identical to a per-request
    /// functional run, however the request was micro-batched.
    pub outputs: Vec<Q8p8>,
    /// Time from submission to the worker claiming the micro-batch, µs.
    pub queue_us: f64,
    /// End-to-end time from submission to completion, µs.
    pub latency_us: f64,
    /// How many requests rode in the same micro-batch (≥ 1).
    pub coalesced: usize,
    /// Which worker executed it.
    pub worker: usize,
}

impl RequestResult {
    /// Output activations converted to `f32`.
    pub fn outputs_f32(&self) -> Vec<f32> {
        self.outputs.iter().map(|v| v.to_f32()).collect()
    }
}

/// A handle to an in-flight request, returned by
/// [`ModelServer::submit`]. Redeem it with
/// [`InferenceResponse::wait`]; every accepted request is answered —
/// with a result or a typed [`RequestError`] — including during a
/// graceful shutdown drain and across worker panics.
#[derive(Debug)]
pub struct InferenceResponse {
    rx: mpsc::Receiver<Result<RequestResult, RequestError>>,
}

impl InferenceResponse {
    /// Blocks until the request completes, successfully or with a
    /// typed failure.
    ///
    /// # Errors
    ///
    /// [`RequestError::WorkerFailed`] if the executing worker
    /// panicked (the worker is quarantined and respawned; the request
    /// is safe to retry), [`RequestError::DeadlineExceeded`] if the
    /// deadline lapsed before execution.
    pub fn wait(self) -> Result<RequestResult, RequestError> {
        self.rx.recv().unwrap_or_else(|_| {
            // The sending side was dropped without an answer — only
            // possible if a worker thread itself died (not a caught
            // panic). Surface it typed rather than panicking here.
            Err(RequestError::WorkerFailed {
                detail: "worker thread died before answering".into(),
            })
        })
    }

    /// Returns the outcome if the request already completed.
    pub fn try_wait(&self) -> Option<Result<RequestResult, RequestError>> {
        self.rx.try_recv().ok()
    }
}

/// One queued request.
#[derive(Debug)]
struct Request {
    input: Vec<Q8p8>,
    submitted: Instant,
    deadline: Option<Instant>,
    tx: mpsc::Sender<Result<RequestResult, RequestError>>,
}

/// Fault-tolerance tallies shared by the admission path, every worker,
/// and the stats snapshot. Plain relaxed atomics: each is a statistic,
/// not a synchronization point — except `degraded`, which admission
/// reads to shed load.
#[derive(Debug, Default)]
struct FaultCounters {
    accepted: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    retries_upstream: AtomicU64,
    restarts: AtomicU64,
    degraded: AtomicBool,
}

/// Linear sub-buckets per power-of-two octave, as a bit count: 32
/// buckets split each octave `[2^k, 2^(k+1))`, so a bucket is at most
/// 1/32 of the values it holds wide and its midpoint lies within 1/64
/// of each of them.
const SUB_BITS: u32 = 5;

/// Buckets covering every `u64` nanosecond count: values below 64 get
/// a bucket each (exact), then 32 per octave up to `2^64`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// A fixed-size log-linear histogram of durations, kept in integer
/// nanoseconds: exact `count`, `sum`, `min` and `max`, and bucket
/// counts that merge exactly by addition (so a merged histogram does
/// not depend on the order of its parts).
///
/// Percentiles follow the nearest-rank rule of [`eie_core::percentile`]
/// and report the ranked value's bucket midpoint clamped to
/// `[min, max]`, within 1/64 relative of the exact value; the lowest
/// and highest ranks report the exact `min` and `max`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// The bucket of a nanosecond count: the octave from the highest
    /// set bit, then the next `SUB_BITS` bits below it.
    fn bucket(ns: u64) -> usize {
        let shift = (u64::BITS - ns.leading_zeros()).saturating_sub(SUB_BITS + 1);
        ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
    }

    /// The midpoint of a bucket's inclusive value range.
    fn midpoint(bucket: usize) -> u64 {
        let shift = (bucket >> SUB_BITS).saturating_sub(1);
        let lo = ((bucket - (shift << SUB_BITS)) as u64) << shift;
        lo + ((1u64 << shift) - 1) / 2
    }

    fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum += u128::from(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile, µs (nearest-rank; `0.0` when empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile_us(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let ns = if rank <= 1 {
            self.min
        } else if rank >= self.count {
            self.max
        } else {
            let mut below = 0;
            let bucket = self
                .counts
                .iter()
                .position(|&c| {
                    below += c;
                    below >= rank
                })
                .expect("the bucket counts sum to `count`");
            Self::midpoint(bucket).clamp(self.min, self.max)
        };
        ns as f64 / 1e3
    }

    /// The exact mean, µs (`0.0` when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64 / 1e3
    }
}

/// Aggregate serving statistics, returned by [`ModelServer::shutdown`]
/// and sampled live by [`ModelServer::stats_snapshot`].
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Requests served to completion (exact count).
    pub requests: u64,
    /// Micro-batches executed (exact count).
    pub batches: u64,
    /// Largest micro-batch observed.
    pub max_coalesced: usize,
    /// End-to-end latency of every served request, submit to answer.
    pub latency: Histogram,
    /// Queue time of every served request, submit to dispatch.
    pub queue: Histogram,
    /// Server lifetime from start to the end of the shutdown drain, s.
    pub wall_s: f64,
    /// Requests admitted past input validation. Accounting invariant
    /// (pinned by the chaos property test):
    /// `accepted = requests + shed + expired + failed`.
    pub accepted: u64,
    /// Requests shed by admission control (queue full, or degraded).
    pub shed: u64,
    /// Requests answered [`RequestError::DeadlineExceeded`] at
    /// admission, coalesce, or dispatch time.
    pub expired: u64,
    /// Requests answered [`RequestError::WorkerFailed`] after a worker
    /// panic.
    pub failed: u64,
    /// Requests that arrived marked as retries (attempt > 0).
    pub retries_upstream: u64,
    /// Worker quarantine-and-respawn cycles.
    pub worker_restarts: u64,
    /// Servers currently degraded to shed-load (0 or 1 for a single
    /// [`ModelServer`]; sums across models under
    /// [`ServerStats::merge`]).
    pub degraded: u64,
    /// Connections evicted for not reading responses within the write
    /// grace period (filled in by the network front-end).
    pub slow_client_evictions: u64,
    /// Failures the server survived and reports after the fact.
    pub errors: Vec<ServerError>,
}

impl ServerStats {
    /// Folds another aggregate in — how a multi-model front-end rolls
    /// per-model statistics into one report. Counters and histogram
    /// buckets add, so the result is exact and independent of merge
    /// order; `max_coalesced` and `wall_s` keep the larger value (the
    /// models served concurrently, so lifetimes overlap rather than
    /// add).
    pub fn merge(&mut self, other: &ServerStats) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.max_coalesced = self.max_coalesced.max(other.max_coalesced);
        self.latency.merge(&other.latency);
        self.queue.merge(&other.queue);
        self.wall_s = self.wall_s.max(other.wall_s);
        self.accepted += other.accepted;
        self.shed += other.shed;
        self.expired += other.expired;
        self.failed += other.failed;
        self.retries_upstream += other.retries_upstream;
        self.worker_restarts += other.worker_restarts;
        self.degraded += other.degraded;
        self.slow_client_evictions += other.slow_client_evictions;
        self.errors.extend(other.errors.iter().cloned());
    }

    /// Mean requests per executed micro-batch (`0.0` before any batch).
    pub fn mean_coalesced(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.requests as f64 / self.batches as f64
    }

    /// The `p`-th percentile of end-to-end request latency, µs
    /// (nearest-rank, within 1/64 relative; `0.0` with no completed
    /// requests).
    pub fn percentile_latency_us(&self, p: f64) -> f64 {
        self.latency.percentile_us(p)
    }

    /// Median request latency, µs.
    pub fn p50(&self) -> f64 {
        self.percentile_latency_us(50.0)
    }

    /// 95th-percentile request latency, µs.
    pub fn p95(&self) -> f64 {
        self.percentile_latency_us(95.0)
    }

    /// 99th-percentile request latency, µs.
    pub fn p99(&self) -> f64 {
        self.percentile_latency_us(99.0)
    }

    /// Mean queue time, µs (`0.0` with no completed requests).
    pub fn mean_queue_us(&self) -> f64 {
        self.queue.mean_us()
    }

    /// Aggregate throughput over the server's lifetime, frames/s.
    pub fn frames_per_second(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / self.wall_s
    }
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests in {} batches (mean {:.1}/batch), {:.0} frames/s, \
             p50 {:.1} µs / p95 {:.1} µs / p99 {:.1} µs, queue {:.1} µs mean",
            self.requests,
            self.batches,
            self.mean_coalesced(),
            self.frames_per_second(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.mean_queue_us()
        )?;
        // The fault tail only appears once something actually failed,
        // so healthy runs keep the familiar one-line shape.
        let faults = self.shed
            + self.expired
            + self.failed
            + self.worker_restarts
            + self.slow_client_evictions
            + self.degraded;
        if faults > 0 {
            write!(
                f,
                "; faults: {} shed, {} expired, {} failed, {} restarts, {} slow-client evictions{}",
                self.shed,
                self.expired,
                self.failed,
                self.worker_restarts,
                self.slow_client_evictions,
                if self.degraded > 0 { ", DEGRADED" } else { "" }
            )?;
        }
        for e in &self.errors {
            write!(f, "; {e}")?;
        }
        Ok(())
    }
}

/// What a server keeps of its model: the name, the configuration its
/// workers instantiate backends for, the input width admission checks,
/// and one resident copy of the weights — the cut plans when the
/// backend walks plans (the encoded layers freed), the encoded layers
/// otherwise.
#[derive(Debug)]
struct ServedModel {
    name: String,
    config: EieConfig,
    input_dim: usize,
    plans: Vec<Arc<LayerPlan>>,
    layers: Vec<EncodedLayer>,
}

/// A live serving instance of one compiled model: a bounded request
/// queue feeding `workers` threads, each owning one instantiated
/// [`Backend`](eie_core::Backend).
///
/// Requests submitted concurrently are coalesced into micro-batches
/// (bounded by [`ServerConfig::max_batch`] and
/// [`ServerConfig::max_wait_us`]) purely for throughput: outputs are
/// **bit-identical** to a per-request run of the functional golden
/// model, because every execution path shares [`run_stack_planned`]'s
/// chaining loop and quantization — pre-decoded execution plans change
/// where a backend reads its weights from, never the accumulation
/// order.
///
/// # Example
///
/// ```
/// use eie_core::nn::zoo::random_sparse;
/// use eie_core::{BackendKind, CompiledModel, EieConfig};
/// use eie_serve::{ModelServer, ServerConfig};
///
/// let w = random_sparse(32, 24, 0.2, 1);
/// let model = CompiledModel::compile_layer(EieConfig::default().with_num_pes(4), &w);
/// let golden = model.infer(BackendKind::Functional).submit_one(&vec![0.5; 24]);
///
/// let server = ModelServer::start(model, ServerConfig::default());
/// let response = server.submit(&vec![0.5; 24]).unwrap();
/// let result = response.wait().unwrap();
/// assert_eq!(result.outputs, golden.outputs(0));
/// let stats = server.shutdown();
/// assert_eq!(stats.requests, 1);
/// ```
#[derive(Debug)]
pub struct ModelServer {
    model: Arc<ServedModel>,
    queue: Arc<MicroBatchQueue<Request>>,
    workers: Vec<JoinHandle<()>>,
    /// The server's one tally of requests, batches and latencies: every
    /// worker writes it once per micro-batch, and
    /// [`ModelServer::stats_snapshot`] clones it. The fault counters
    /// live apart as atomics because admission reads them.
    tally: Arc<Mutex<ServerStats>>,
    counters: Arc<FaultCounters>,
    config: ServerConfig,
    started: Instant,
}

impl ModelServer {
    /// Starts the server: resolves the backend for its workers
    /// ([`BackendKind::per_worker`] — `NativeCpu(0)` becomes each
    /// worker's share of the cores, `t` threads), builds the model's
    /// execution plans cut into at least `t` blocks and frees the
    /// encoded layers (when the backend walks plans), spawns the worker
    /// pool and begins accepting requests. On return the model is fully
    /// resident, in one copy: the first request pays a dispatch, not a
    /// decode.
    ///
    /// # Panics
    ///
    /// Panics if the policy is degenerate (`workers`, `max_batch` or
    /// `queue_depth` of zero — the `with_*` builders enforce the same
    /// bounds, but [`ServerConfig`]'s fields are public) or a worker
    /// thread cannot be spawned.
    pub fn start(model: CompiledModel, config: ServerConfig) -> Self {
        Self::start_with_faults(model, config, None)
    }

    /// [`ModelServer::start`] with a [`FaultPlan`] installed: every
    /// dispatch consults the plan for injected panics, stalls and
    /// latency. The chaos harness's entry point; `None` is exactly
    /// `start`.
    pub fn start_with_faults(
        model: CompiledModel,
        config: ServerConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        assert!(config.workers > 0, "server needs at least one worker");
        assert!(config.max_batch > 0, "max_batch must be non-zero");
        assert!(config.queue_depth > 0, "queue_depth must be non-zero");
        let config = ServerConfig {
            backend: config.backend.per_worker(host_cores(), config.workers),
            ..config
        };
        // Build the plans here, on the caller's thread, whenever the
        // workers will walk them (`plan_cut` says so, and for how many
        // threads), and free the encoded layers here too: the model's
        // largest allocations are then made and freed by the long-lived
        // thread that loaded it rather than inside a worker's
        // short-lived malloc arena, and the first request never queues
        // behind a build. Cut for the kernel's threads, the one shared
        // plan is what every worker engine walks on all its threads: a
        // coarser one would leave threads idle. Backends that stream
        // the layers keep them and get no plan.
        let (name, cfg, input_dim) = (model.name().into(), *model.config(), model.input_dim());
        let (plans, layers) = match config.backend.plan_cut() {
            Some(threads) => (model.into_plans(threads), Vec::new()),
            None => (Vec::new(), model.into_layers()),
        };
        let model = Arc::new(ServedModel {
            name,
            config: cfg,
            input_dim,
            plans,
            layers,
        });
        let queue = Arc::new(MicroBatchQueue::new(config.queue_depth));
        let counters = Arc::new(FaultCounters::default());
        let tally = Arc::new(Mutex::new(ServerStats::default()));
        let workers = (0..config.workers)
            .map(|worker| {
                let model = Arc::clone(&model);
                let queue = Arc::clone(&queue);
                let tally = Arc::clone(&tally);
                let counters = Arc::clone(&counters);
                let faults = faults.clone();
                std::thread::Builder::new()
                    .name(format!("eie-serve-{worker}"))
                    .spawn(move || {
                        worker_loop(worker, &model, config, &queue, &tally, &counters, faults)
                    })
                    .expect("spawn serving worker")
            })
            .collect();
        Self {
            model,
            queue,
            workers,
            tally,
            counters,
            config,
            started: Instant::now(),
        }
    }

    /// Loads a versioned `.eie` artifact and starts serving it — the
    /// deployment path: compress once, serve anywhere.
    pub fn load(path: impl AsRef<Path>, config: ServerConfig) -> Result<Self, ModelArtifactError> {
        Ok(Self::start(CompiledModel::load(path)?, config))
    }

    /// The served model's name ("" when unnamed).
    pub fn name(&self) -> &str {
        &self.model.name
    }

    /// The plans the workers walk, input to output, cut for the
    /// kernel's threads at start — empty unless the backend walks plans.
    pub fn plans(&self) -> &[Arc<LayerPlan>] {
        &self.model.plans
    }

    /// The encoded layers the workers walk, input to output — empty
    /// when the backend walks plans (the server freed them at start).
    pub fn layers(&self) -> &[EncodedLayer] {
        &self.model.layers
    }

    /// The serving policy, with the backend as resolved at start
    /// (`NativeCpu(0)` reads back as `NativeCpu(t)`, the threads each
    /// worker's kernel runs).
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Requests queued but not yet claimed by a worker.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Submits one input vector, blocking while the bounded queue is
    /// full (backpressure). Returns a handle redeemable for the result.
    pub fn submit(&self, input: &[f32]) -> Result<InferenceResponse, SubmitError> {
        self.submit_with(input, SubmitOptions::default())
    }

    /// [`ModelServer::submit`] with per-request [`SubmitOptions`]
    /// (deadline, attempt number).
    pub fn submit_with(
        &self,
        input: &[f32],
        opts: SubmitOptions,
    ) -> Result<InferenceResponse, SubmitError> {
        let (request, rx) = self.admit(input, opts)?;
        match self.queue.push(request) {
            Ok(()) => {
                self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(InferenceResponse { rx })
            }
            Err(_) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Submits one input vector without blocking: fails fast with
    /// [`SubmitError::QueueFull`] when the queue is at capacity — the
    /// shed-load path for callers with their own retry policy.
    pub fn try_submit(&self, input: &[f32]) -> Result<InferenceResponse, SubmitError> {
        self.try_submit_with(input, SubmitOptions::default())
    }

    /// [`ModelServer::try_submit`] with per-request [`SubmitOptions`].
    pub fn try_submit_with(
        &self,
        input: &[f32],
        opts: SubmitOptions,
    ) -> Result<InferenceResponse, SubmitError> {
        let (request, rx) = self.admit(input, opts)?;
        match self.queue.try_push(request) {
            Ok(()) => {
                self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(InferenceResponse { rx })
            }
            Err(PushError::Full) => {
                self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::QueueFull {
                    depth: self.config.queue_depth,
                })
            }
            Err(PushError::Closed) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Whether the server spent its restart budget and now sheds all
    /// load.
    pub fn is_degraded(&self) -> bool {
        self.counters.degraded.load(Ordering::Relaxed)
    }

    /// Validates and quantizes an input into a queued request, and runs
    /// the admission-time fault checks (deadline, degraded). The
    /// quantization here is the same `Q8p8` conversion
    /// [`InferenceJob::submit`](eie_core::InferenceJob::submit) applies,
    /// so served outputs stay bit-exact with direct jobs.
    ///
    /// Accounting: `accepted` counts submissions that passed input
    /// validation and were *dispositioned* — queued, shed, or expired —
    /// so `accepted = requests + shed + expired + failed` holds at
    /// drain. Rejections a caller must fix (bad length) and
    /// shutdown-window races are outside the equation.
    #[allow(clippy::type_complexity)]
    fn admit(
        &self,
        input: &[f32],
        opts: SubmitOptions,
    ) -> Result<(Request, mpsc::Receiver<Result<RequestResult, RequestError>>), SubmitError> {
        if input.len() != self.model.input_dim {
            return Err(SubmitError::BadInputLength {
                got: input.len(),
                want: self.model.input_dim,
            });
        }
        if opts.attempt > 0 {
            self.counters
                .retries_upstream
                .fetch_add(1, Ordering::Relaxed);
        }
        if self.is_degraded() {
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Degraded {
                restarts: self.counters.restarts.load(Ordering::Relaxed),
            });
        }
        if let Some(deadline) = opts.deadline {
            if Instant::now() >= deadline {
                self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                self.counters.expired.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::DeadlineExceeded);
            }
        }
        let (tx, rx) = mpsc::channel();
        Ok((
            Request {
                input: Q8p8::from_f32_slice(input),
                submitted: Instant::now(),
                deadline: opts.deadline,
                tx,
            },
            rx,
        ))
    }

    /// A live view of the aggregate serving statistics over the
    /// server's lifetime *so far*, without stopping anything — the
    /// number behind a serving front-end's STATS endpoint. Requests
    /// inside a micro-batch a worker is still executing are not yet
    /// counted.
    pub fn stats_snapshot(&self) -> ServerStats {
        let mut stats = self.tally.lock().expect("server tally poisoned").clone();
        stats.wall_s = self.started.elapsed().as_secs_f64();
        stats.accepted = self.counters.accepted.load(Ordering::Relaxed);
        stats.shed = self.counters.shed.load(Ordering::Relaxed);
        stats.expired = self.counters.expired.load(Ordering::Relaxed);
        stats.failed = self.counters.failed.load(Ordering::Relaxed);
        stats.retries_upstream = self.counters.retries_upstream.load(Ordering::Relaxed);
        stats.worker_restarts = self.counters.restarts.load(Ordering::Relaxed);
        stats.degraded = u64::from(self.counters.degraded.load(Ordering::Relaxed));
        stats
    }

    /// Gracefully shuts down: stops accepting requests, lets the
    /// workers drain everything already queued (every accepted request
    /// is answered — with a result or a typed [`RequestError`]), joins
    /// them, and returns the aggregate statistics. A worker thread
    /// found dead (its panics are normally caught and quarantined, so
    /// this means the thread itself was killed) is reported as
    /// [`ServerError::WorkerLost`] in [`ServerStats::errors`] instead
    /// of propagating the panic to the caller.
    pub fn shutdown(mut self) -> ServerStats {
        self.queue.close();
        // Take the handles so the Drop impl (which runs when `self` goes
        // out of scope here) finds nothing left to join.
        let lost = std::mem::take(&mut self.workers)
            .into_iter()
            .filter_map(|handle| handle.join().err())
            .count();
        if lost > 0 {
            self.tally
                .lock()
                .expect("server tally poisoned")
                .errors
                .push(ServerError::WorkerLost { workers: lost });
        }
        self.stats_snapshot()
    }
}

impl Drop for ModelServer {
    /// Dropping a server without [`ModelServer::shutdown`] (an early
    /// return, a `?`, a panic unwinding past it) must not leak the
    /// worker pool: close the queue, let the workers drain, and join
    /// them — discarding the statistics. Worker panics are swallowed
    /// here (joining is best-effort during unwind); `shutdown` is the
    /// path that surfaces them.
    fn drop(&mut self) {
        self.queue.close();
        for handle in std::mem::take(&mut self.workers) {
            let _ = handle.join();
        }
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One worker: instantiate its backend, resolve the layers it walks
/// (the plans [`ModelServer::start_with_faults`] built, so every
/// worker — and every respawn — scans the same pre-decoded arrays
/// without building any; or the encoded layers), then claim → execute
/// → answer micro-batches until the queue closes and drains.
///
/// # Quarantine
///
/// Execution runs inside `catch_unwind`: a panic (a backend bug, or an
/// injected [`FaultPlan`] fault) fails only the claimed batch — each of
/// its requests is answered with a typed
/// [`RequestError::WorkerFailed`] — and the worker *respawns*: the
/// `'respawn` loop tears the executor down, waits out an exponential
/// backoff, rebuilds it, and resumes claiming work. Restarts draw on
/// the server-wide [`ServerConfig::restart_budget`]; once spent, the
/// server flips to degraded and admission sheds everything, but the
/// workers keep draining so every accepted request is still answered.
///
/// # Deadlines
///
/// A claimed batch is filtered twice — when claimed (covers time spent
/// queued and in the coalescing window) and again right before dispatch
/// (covers injected stalls and restart backoff): requests whose
/// deadline lapsed are answered [`RequestError::DeadlineExceeded`]
/// without a backend slot.
fn worker_loop(
    worker: usize,
    model: &ServedModel,
    config: ServerConfig,
    queue: &MicroBatchQueue<Request>,
    tally: &Mutex<ServerStats>,
    counters: &FaultCounters,
    faults: Option<Arc<FaultPlan>>,
) {
    let max_wait = Duration::from_micros(config.max_wait_us);
    let mut consecutive_restarts = 0u32;
    'respawn: loop {
        let backend = config.backend.instantiate(&model.config);
        // The server holds exactly one of the two (`start_with_faults`).
        let plans = model.plans.iter().map(PlannedLayer::Plan);
        let layers: Vec<_> = plans
            .chain(model.layers.iter().map(PlannedLayer::Encoded))
            .collect();
        while let Some(mut batch) = queue.pop_batch(config.max_batch, max_wait) {
            if batch.is_empty() {
                continue;
            }
            let fault = faults
                .as_ref()
                .map(|f| f.next_dispatch())
                .unwrap_or_default();
            if let Some(hold) = fault.stall {
                std::thread::sleep(hold);
            }
            // Deadline filter at dispatch time (pop_batch already spent
            // the coalescing window, the stall may have spent more).
            let now = Instant::now();
            batch.retain(|r| match r.deadline {
                Some(deadline) if now >= deadline => {
                    counters.expired.fetch_add(1, Ordering::Relaxed);
                    let _ = r.tx.send(Err(RequestError::DeadlineExceeded));
                    false
                }
                _ => true,
            });
            if batch.is_empty() {
                continue;
            }
            let claimed = Instant::now();
            let inputs: Vec<Vec<Q8p8>> = batch
                .iter_mut()
                .map(|r| std::mem::take(&mut r.input))
                .collect();
            let executed = panic::catch_unwind(AssertUnwindSafe(|| {
                if fault.panic {
                    panic!("injected worker panic");
                }
                run_stack_planned(backend.as_ref(), &layers, &inputs)
                    .into_iter()
                    .map(|run| run.outputs)
                    .collect::<Vec<Vec<Q8p8>>>()
            }));
            let outputs = match executed {
                Ok(outputs) => {
                    consecutive_restarts = 0;
                    outputs
                }
                Err(payload) => {
                    // Quarantine: fail only this batch, typed; then
                    // respawn the executor after a bounded backoff.
                    let detail = panic_detail(payload);
                    for request in batch {
                        counters.failed.fetch_add(1, Ordering::Relaxed);
                        let _ = request.tx.send(Err(RequestError::WorkerFailed {
                            detail: detail.clone(),
                        }));
                    }
                    let restarts = counters.restarts.fetch_add(1, Ordering::Relaxed) + 1;
                    if restarts > u64::from(config.restart_budget) {
                        counters.degraded.store(true, Ordering::Relaxed);
                    }
                    let shift = consecutive_restarts.min(6);
                    consecutive_restarts += 1;
                    std::thread::sleep(Duration::from_micros(config.restart_backoff_us << shift));
                    continue 'respawn;
                }
            };
            let done = Instant::now();
            let coalesced = batch.len();
            // Record the batch before answering it, so a caller that
            // has its answer sees it counted; send with the lock
            // released, so no worker waits on another's replies.
            let mut stats = tally.lock().expect("server tally poisoned");
            stats.requests += coalesced as u64;
            stats.batches += 1;
            stats.max_coalesced = stats.max_coalesced.max(coalesced);
            for request in &batch {
                stats
                    .queue
                    .record(claimed.duration_since(request.submitted));
                stats.latency.record(done.duration_since(request.submitted));
            }
            drop(stats);
            for (request, outputs) in batch.into_iter().zip(outputs) {
                // A dropped receiver (caller gave up) is not an error.
                let _ = request.tx.send(Ok(RequestResult {
                    outputs,
                    queue_us: claimed.duration_since(request.submitted).as_secs_f64() * 1e6,
                    latency_us: done.duration_since(request.submitted).as_secs_f64() * 1e6,
                    coalesced,
                    worker,
                }));
            }
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eie_core::percentile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PS: [f64; 8] = [0.0, 1.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0];

    /// `n` seeded durations, log-uniform over 50 ns – 10 s.
    fn stream(seed: u64, n: usize) -> Vec<Duration> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Duration::from_nanos((50.0 * 2e8f64.powf(rng.gen::<f64>())) as u64))
            .collect()
    }

    fn histogram(durations: &[Duration]) -> Histogram {
        let mut h = Histogram::default();
        durations.iter().for_each(|&d| h.record(d));
        h
    }

    #[test]
    fn histogram_percentiles_are_within_1_64_of_nearest_rank() {
        for (seed, n) in [(1, 1), (2, 2), (3, 7), (4, 100), (5, 1000), (6, 20_000)] {
            let durations = stream(seed, n);
            let h = histogram(&durations);
            let exact_us: Vec<f64> = durations
                .iter()
                .map(|d| d.as_nanos() as f64 / 1e3)
                .collect();
            for p in PS {
                let (got, want) = (h.percentile_us(p), percentile(&exact_us, p));
                assert!(
                    (got - want).abs() <= want / 64.0,
                    "seed {seed}, n {n}, p{p}: {got} µs against exact {want} µs"
                );
            }
            // The lowest and highest ranks are exact (p1 is rank 1 up to
            // n = 100).
            assert_eq!(h.percentile_us(0.0), percentile(&exact_us, 0.0));
            assert_eq!(h.percentile_us(100.0), percentile(&exact_us, 100.0));
            if n <= 100 {
                assert_eq!(h.percentile_us(1.0), percentile(&exact_us, 0.0));
            }
            assert_eq!(h.count, n as u64);
            let mean = exact_us.iter().sum::<f64>() / n as f64;
            assert!((h.mean_us() - mean).abs() <= mean * 1e-12);
        }
    }

    #[test]
    fn histogram_is_exact_below_64_ns_and_takes_the_extremes() {
        for bucket in 0..BUCKETS {
            assert_eq!(Histogram::bucket(Histogram::midpoint(bucket)), bucket);
        }
        for ns in 0..64 {
            assert_eq!(Histogram::midpoint(Histogram::bucket(ns)), ns);
        }
        let small: Vec<Duration> = (0..64).rev().map(Duration::from_nanos).collect();
        let exact_us: Vec<f64> = (0..64).map(|ns| ns as f64 / 1e3).collect();
        let h = histogram(&small);
        for p in (0..=100).map(f64::from) {
            assert_eq!(h.percentile_us(p), percentile(&exact_us, p));
        }

        let h = histogram(&[
            Duration::ZERO,
            Duration::from_nanos(u64::MAX),
            Duration::MAX,
        ]);
        assert_eq!(Histogram::bucket(u64::MAX), BUCKETS - 1);
        let max_us = u64::MAX as f64 / 1e3;
        assert_eq!(h.percentile_us(0.0), 0.0);
        assert!((h.percentile_us(50.0) - max_us).abs() <= max_us / 64.0);
        assert_eq!(h.percentile_us(100.0), max_us);
        assert_eq!(h.count, 3);
    }

    #[test]
    fn histogram_merge_is_exact_and_order_independent() {
        let (a, b) = (stream(11, 3000), stream(12, 500));
        let union = histogram(&[a.clone(), b.clone()].concat());
        let mut ab = histogram(&a);
        ab.merge(&histogram(&b));
        let mut ba = histogram(&b);
        ba.merge(&histogram(&a));
        // Bucket for bucket, and count, sum, min and max.
        assert_eq!(ab, union);
        assert_eq!(ba, union);
        let mut with_empty = histogram(&a);
        with_empty.merge(&Histogram::default());
        assert_eq!(with_empty, histogram(&a));

        // ServerStats::merge carries the same exactness.
        let stats = |latency: Histogram| ServerStats {
            requests: latency.count,
            latency,
            ..ServerStats::default()
        };
        let mut sab = stats(histogram(&a));
        sab.merge(&stats(histogram(&b)));
        let mut sba = stats(histogram(&b));
        sba.merge(&stats(histogram(&a)));
        assert_eq!(sab.requests, 3500);
        assert_eq!(sab.latency, sba.latency);
        assert_eq!(sab.p99(), union.percentile_us(99.0));
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::default();
        for p in PS {
            assert_eq!(h.percentile_us(p), 0.0);
        }
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(ServerStats::default().p99(), 0.0);
        assert_eq!(ServerStats::default().mean_queue_us(), 0.0);
    }

    #[test]
    fn display_reports_a_node_that_only_evicted_slow_clients() {
        let healthy = ServerStats::default().to_string();
        assert!(!healthy.contains("faults"), "{healthy}");
        let evicted = ServerStats {
            slow_client_evictions: 2,
            ..ServerStats::default()
        }
        .to_string();
        assert!(
            evicted.ends_with(
                "; faults: 0 shed, 0 expired, 0 failed, 0 restarts, 2 slow-client evictions"
            ),
            "{evicted}"
        );
    }
}
