//! The model server: one `.eie` artifact, N workers, one request queue.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eie_core::backend::host_cores;
use eie_core::compress::LANE_WIDTH;
use eie_core::fixed::Q8p8;
use eie_core::{
    percentile, run_stack_planned, BackendKind, CompiledModel, ModelArtifactError, PlannedLayer,
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

/// Per-worker reservoir capacity. Two reservoirs of `f64` per worker
/// bound the metrics memory at ~256 KiB/worker however long the server
/// runs; 16 Ki samples keep the p99 estimate tight (±~0.1% rank error).
const RESERVOIR_CAP: usize = 16_384;

/// A fixed-capacity uniform sample of a latency stream (Algorithm R):
/// the first `RESERVOIR_CAP` values are kept verbatim, after which each
/// new value replaces a random slot with probability `cap/seen` — so
/// percentiles stay statistically valid at constant memory over an
/// unbounded run.
#[derive(Debug, Clone)]
struct Reservoir {
    samples: Vec<f64>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    fn new(seed: u64) -> Self {
        Self {
            samples: Vec::new(),
            // SplitMix64-style seeding keeps per-worker streams distinct.
            seen: 0,
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        xorshift64star(&mut self.rng)
    }

    fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR_CAP {
            self.samples.push(value);
        } else {
            let slot = self.next_u64() % self.seen;
            if (slot as usize) < RESERVOIR_CAP {
                self.samples[slot as usize] = value;
            }
        }
    }
}

/// xorshift64*: cheap, no external dependency, quality is ample for
/// reservoir slot selection and merge-time source selection.
fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Merges two uniform samples of two streams into one uniform sample of
/// the combined stream: `pool` (a sample of `pool_seen` observations)
/// absorbs `incoming` (a sample of `incoming_seen`).
///
/// While everything fits in [`RESERVOIR_CAP`] the union is kept exactly
/// (a sub-capacity sample *is* its stream). Past capacity, each output
/// slot draws its source hypergeometrically — from `pool` with
/// probability proportional to the *remaining* unsampled weight of
/// `pool_seen`, else from `incoming` — so each source contributes in
/// proportion to its observed count, not its sample count. Reservoir
/// samples are exchangeable, so consuming each source sequentially is
/// itself uniform; the RNG is seeded from the two counts, keeping any
/// given merge deterministic.
fn merge_sample_pools(pool: &mut Vec<f64>, pool_seen: u64, incoming: &[f64], incoming_seen: u64) {
    if incoming.is_empty() {
        return;
    }
    if pool.is_empty() || pool.len() + incoming.len() <= RESERVOIR_CAP {
        pool.extend_from_slice(incoming);
        return;
    }
    let mut rng = pool_seen
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(incoming_seen)
        | 1;
    let target = RESERVOIR_CAP.min(pool.len() + incoming.len());
    let source = std::mem::take(pool);
    let (mut ia, mut ib) = (0usize, 0usize);
    // Remaining stream weights behind each sample (≥ sample length —
    // `seen` counts the whole stream the sample summarizes).
    let mut wa = pool_seen.max(source.len() as u64);
    let mut wb = incoming_seen.max(incoming.len() as u64);
    pool.reserve(target);
    for _ in 0..target {
        let take_a = if ia >= source.len() {
            false
        } else if ib >= incoming.len() {
            true
        } else {
            xorshift64star(&mut rng) % (wa + wb) < wa
        };
        if take_a {
            pool.push(source[ia]);
            ia += 1;
            wa = wa.saturating_sub(1).max((source.len() - ia) as u64);
        } else {
            pool.push(incoming[ib]);
            ib += 1;
            wb = wb.saturating_sub(1).max((incoming.len() - ib) as u64);
        }
    }
}

/// Per-worker tallies, published through a shared `Mutex` so a live
/// snapshot ([`ModelServer::stats_snapshot`]) and the final merge
/// ([`ModelServer::shutdown`]) read the same numbers. The lock is taken
/// once per micro-batch, not per request, so it costs the hot path one
/// uncontended lock per batch.
#[derive(Debug)]
struct WorkerStats {
    requests: u64,
    batches: u64,
    max_coalesced: usize,
    latencies_us: Reservoir,
    queue_us: Reservoir,
}

impl WorkerStats {
    fn new(worker: usize) -> Self {
        Self {
            requests: 0,
            batches: 0,
            max_coalesced: 0,
            latencies_us: Reservoir::new(worker as u64 + 1),
            queue_us: Reservoir::new((worker as u64 + 1) << 32),
        }
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
    /// Sampled per-request end-to-end latencies, µs. Exact below
    /// 16 Ki requests total; a uniform reservoir sample beyond, so the
    /// percentile accessors stay valid at constant memory over
    /// unbounded runs. Per-worker reservoirs merge **weighted by each
    /// worker's observed request count** (not per-sample), so the
    /// merged pool is a uniform sample of the server's whole traffic
    /// and p50/p95/p99 stay unbiased across workers with unequal
    /// traffic shares.
    pub latencies_us: Vec<f64>,
    /// Sampled per-request queue times, µs (same reservoir policy and
    /// traffic-weighted merge).
    pub queue_us: Vec<f64>,
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
    /// Folds one worker's tallies in. **Merge semantics:** sample pools
    /// merge weighted by each side's observed request count
    /// ([`merge_sample_pools`]), so a worker that served 99% of the
    /// traffic contributes ~99% of the merged pool however its
    /// reservoir was bounded — percentiles are over *traffic*, not over
    /// per-worker samples. Pinned by a unit test.
    fn absorb(&mut self, w: &WorkerStats) {
        let pool_seen = self.requests;
        self.requests += w.requests;
        self.batches += w.batches;
        self.max_coalesced = self.max_coalesced.max(w.max_coalesced);
        merge_sample_pools(
            &mut self.latencies_us,
            pool_seen,
            &w.latencies_us.samples,
            w.latencies_us.seen,
        );
        merge_sample_pools(
            &mut self.queue_us,
            pool_seen,
            &w.queue_us.samples,
            w.queue_us.seen,
        );
    }

    /// Folds another aggregate in — how a multi-model front-end rolls
    /// per-model statistics into one report. Counters add; the sample
    /// pools merge weighted by each aggregate's request count (the same
    /// traffic-share semantics as the worker merge); `wall_s` keeps the
    /// longer lifetime (the models served concurrently, so lifetimes
    /// overlap rather than add).
    pub fn merge(&mut self, other: &ServerStats) {
        let pool_seen = self.requests;
        self.requests += other.requests;
        self.batches += other.batches;
        self.max_coalesced = self.max_coalesced.max(other.max_coalesced);
        merge_sample_pools(
            &mut self.latencies_us,
            pool_seen,
            &other.latencies_us,
            other.requests,
        );
        merge_sample_pools(
            &mut self.queue_us,
            pool_seen,
            &other.queue_us,
            other.requests,
        );
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
    /// (nearest-rank; `0.0` with no completed requests).
    pub fn percentile_latency_us(&self, p: f64) -> f64 {
        percentile(&self.latencies_us, p)
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
        if self.queue_us.is_empty() {
            return 0.0;
        }
        self.queue_us.iter().sum::<f64>() / self.queue_us.len() as f64
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
        if self.shed + self.expired + self.failed + self.worker_restarts + self.degraded > 0 {
            write!(
                f,
                "; faults: {} shed, {} expired, {} failed, {} restarts{}",
                self.shed,
                self.expired,
                self.failed,
                self.worker_restarts,
                if self.degraded > 0 { ", DEGRADED" } else { "" }
            )?;
        }
        for e in &self.errors {
            write!(f, "; {e}")?;
        }
        Ok(())
    }
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
    model: Arc<CompiledModel>,
    queue: Arc<MicroBatchQueue<Request>>,
    workers: Vec<JoinHandle<()>>,
    /// One shared tally per worker, written once per micro-batch; read
    /// by [`ModelServer::stats_snapshot`] and [`ModelServer::shutdown`].
    worker_stats: Vec<Arc<Mutex<WorkerStats>>>,
    counters: Arc<FaultCounters>,
    /// Workers found dead at shutdown (thread death, not a caught
    /// panic); surfaced as [`ServerError::WorkerLost`].
    lost_workers: Mutex<usize>,
    config: ServerConfig,
    started: Instant,
}

impl ModelServer {
    /// Starts the server: resolves the backend for its workers
    /// ([`BackendKind::per_worker`] — `NativeCpu(0)` becomes each
    /// worker's share of the cores, `t` threads), builds the model's
    /// execution plans cut into at least `t` blocks (when the backend
    /// walks plans), spawns the worker pool and begins accepting
    /// requests. On return the model is fully resident: the first
    /// request pays a dispatch, not a decode.
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
        mut model: CompiledModel,
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
        // workers will walk them (the native kernel is the backend that
        // does): the model's largest allocation is then made (and, once
        // the server is dropped, freed) by the long-lived thread that
        // loaded it rather than inside a worker's short-lived malloc
        // arena, every worker's `planned_layers()` is a cache hit, and
        // the first request never queues behind a build. Cut for the
        // kernel's threads, the one shared plan is what every worker
        // engine walks: a coarser one would be re-blocked into a
        // private copy per worker. Backends that stream the layers get
        // no plan.
        if let BackendKind::NativeCpu(threads) = config.backend {
            model.cut_plans(threads);
        }
        let model = Arc::new(model);
        let queue = Arc::new(MicroBatchQueue::new(config.queue_depth));
        let counters = Arc::new(FaultCounters::default());
        let worker_stats: Vec<Arc<Mutex<WorkerStats>>> = (0..config.workers)
            .map(|worker| Arc::new(Mutex::new(WorkerStats::new(worker))))
            .collect();
        let workers = (0..config.workers)
            .map(|worker| {
                let model = Arc::clone(&model);
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&worker_stats[worker]);
                let counters = Arc::clone(&counters);
                let faults = faults.clone();
                std::thread::Builder::new()
                    .name(format!("eie-serve-{worker}"))
                    .spawn(move || {
                        worker_loop(worker, &model, config, &queue, &stats, &counters, faults)
                    })
                    .expect("spawn serving worker")
            })
            .collect();
        Self {
            model,
            queue,
            workers,
            worker_stats,
            counters,
            lost_workers: Mutex::new(0),
            config,
            started: Instant::now(),
        }
    }

    /// Loads a versioned `.eie` artifact and starts serving it — the
    /// deployment path: compress once, serve anywhere.
    pub fn load(path: impl AsRef<Path>, config: ServerConfig) -> Result<Self, ModelArtifactError> {
        Ok(Self::start(CompiledModel::load(path)?, config))
    }

    /// The model being served.
    pub fn model(&self) -> &CompiledModel {
        &self.model
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
        if input.len() != self.model.input_dim() {
            return Err(SubmitError::BadInputLength {
                got: input.len(),
                want: self.model.input_dim(),
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

    /// A live view of the aggregate serving statistics: every worker's
    /// published tallies merged over the server's lifetime *so far*,
    /// without stopping anything — the number behind a serving
    /// front-end's STATS endpoint. Requests inside a micro-batch a
    /// worker is still executing are not yet counted.
    pub fn stats_snapshot(&self) -> ServerStats {
        let mut stats = ServerStats::default();
        for worker in &self.worker_stats {
            stats.absorb(&worker.lock().expect("worker stats poisoned"));
        }
        stats.wall_s = self.started.elapsed().as_secs_f64();
        stats.accepted = self.counters.accepted.load(Ordering::Relaxed);
        stats.shed = self.counters.shed.load(Ordering::Relaxed);
        stats.expired = self.counters.expired.load(Ordering::Relaxed);
        stats.failed = self.counters.failed.load(Ordering::Relaxed);
        stats.retries_upstream = self.counters.retries_upstream.load(Ordering::Relaxed);
        stats.worker_restarts = self.counters.restarts.load(Ordering::Relaxed);
        stats.degraded = u64::from(self.counters.degraded.load(Ordering::Relaxed));
        let lost = *self
            .lost_workers
            .lock()
            .expect("lost-worker tally poisoned");
        if lost > 0 {
            stats.errors.push(ServerError::WorkerLost { workers: lost });
        }
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
        for handle in std::mem::take(&mut self.workers) {
            if handle.join().is_err() {
                *self
                    .lost_workers
                    .lock()
                    .expect("lost-worker tally poisoned") += 1;
            }
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

/// One worker: instantiate its backend, resolve the model's planned
/// layers (already built into the model's shared cache by
/// [`ModelServer::start_with_faults`], so every worker — and every
/// respawn — scans the same pre-decoded arrays without building any),
/// then claim → execute → answer micro-batches until the queue closes
/// and drains.
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
    model: &CompiledModel,
    config: ServerConfig,
    queue: &MicroBatchQueue<Request>,
    shared: &Mutex<WorkerStats>,
    counters: &FaultCounters,
    faults: Option<Arc<FaultPlan>>,
) {
    let max_wait = Duration::from_micros(config.max_wait_us);
    let mut consecutive_restarts = 0u32;
    'respawn: loop {
        let backend = config.backend.instantiate(model.config());
        let layers: Vec<PlannedLayer<'_>> = if backend.wants_plans() {
            model.planned_layers()
        } else {
            model.layers().iter().map(PlannedLayer::unplanned).collect()
        };
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
            let mut stats = shared.lock().expect("worker stats poisoned");
            stats.batches += 1;
            stats.max_coalesced = stats.max_coalesced.max(coalesced);
            for (request, outputs) in batch.into_iter().zip(outputs) {
                let queue_us = claimed.duration_since(request.submitted).as_secs_f64() * 1e6;
                let latency_us = done.duration_since(request.submitted).as_secs_f64() * 1e6;
                stats.requests += 1;
                stats.queue_us.push(queue_us);
                stats.latencies_us.push(latency_us);
                // A dropped receiver (caller gave up) is not an error.
                let _ = request.tx.send(Ok(RequestResult {
                    outputs,
                    queue_us,
                    latency_us,
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

    #[test]
    fn stats_merge_weights_samples_by_traffic_share() {
        // Asserts the weighted reservoir merge (the old equal-weight
        // concatenation is gone): worker A saw 4× the reservoir
        // capacity of requests (its reservoir holds CAP samples of
        // value 1000); worker B saw only 10 requests (10 samples of
        // value 0). B is ~0.015% of traffic, so a traffic-weighted
        // merge admits at most a handful of B's zeros into the bounded
        // pool — the old concatenation kept all 10 regardless of
        // traffic, biasing every low percentile toward the idle worker.
        let mut a = WorkerStats::new(0);
        for _ in 0..(4 * RESERVOIR_CAP as u64) {
            a.requests += 1;
            a.latencies_us.push(1000.0);
            a.queue_us.push(1000.0);
        }
        let mut b = WorkerStats::new(1);
        for _ in 0..10 {
            b.requests += 1;
            b.latencies_us.push(0.0);
            b.queue_us.push(0.0);
        }
        let mut merged = ServerStats::default();
        merged.absorb(&a);
        merged.absorb(&b);
        // Exact request counts survive the merge…
        assert_eq!(merged.requests, 4 * RESERVOIR_CAP as u64 + 10);
        // …and the merged pool stays bounded at reservoir capacity (a
        // uniform sample of the union, not a concatenation).
        assert_eq!(merged.latencies_us.len(), RESERVOIR_CAP);
        // B's expected share of the pool is CAP × (10 / 65546) ≈ 2.5
        // samples. Strictly fewer than the 10 the biased merge kept;
        // a loose deterministic bound (the merge RNG is seeded from
        // the observation counts) guards the proportionality.
        let zeros = merged.latencies_us.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros < 10, "traffic weighting must down-sample B: {zeros}");
        // The percentile view is over traffic: the idle worker no
        // longer defines the distribution's low tail…
        assert_eq!(merged.p50(), 1000.0);
        assert_eq!(merged.percentile_latency_us(0.05), 1000.0);
        // …while sub-capacity merges stay exact (nothing to weight).
        let mut small = ServerStats::default();
        let mut c = WorkerStats::new(2);
        for _ in 0..4 {
            c.requests += 1;
            c.latencies_us.push(7.0);
            c.queue_us.push(1.0);
        }
        small.absorb(&c);
        small.absorb(&b);
        assert_eq!(small.latencies_us.len(), 14);
        assert_eq!(small.percentile_latency_us(1.0), 0.0);
    }

    #[test]
    fn aggregate_merge_is_also_traffic_weighted_and_bounded() {
        // The public ServerStats::merge (multi-model roll-up) applies
        // the same weighted semantics: two over-capacity aggregates
        // merge into one capacity-bounded pool with contributions
        // proportional to their request counts.
        let mut hot = ServerStats {
            requests: 9 * RESERVOIR_CAP as u64,
            latencies_us: vec![500.0; RESERVOIR_CAP],
            ..ServerStats::default()
        };
        let cold = ServerStats {
            requests: RESERVOIR_CAP as u64,
            latencies_us: vec![5.0; RESERVOIR_CAP],
            wall_s: 2.0,
            ..ServerStats::default()
        };
        hot.merge(&cold);
        assert_eq!(hot.requests, 10 * RESERVOIR_CAP as u64);
        assert_eq!(hot.latencies_us.len(), RESERVOIR_CAP);
        assert_eq!(hot.wall_s, 2.0);
        let cold_share =
            hot.latencies_us.iter().filter(|&&v| v == 5.0).count() as f64 / RESERVOIR_CAP as f64;
        // Cold served 10% of the traffic; its pool share must sit near
        // that, nowhere near the 50% an equal-weight merge would give.
        assert!(
            (0.05..0.2).contains(&cold_share),
            "cold share {cold_share} should be ≈0.1"
        );
        // p50 lands on the hot aggregate's latency.
        assert_eq!(hot.p50(), 500.0);
    }

    #[test]
    fn reservoir_is_exact_below_capacity_and_bounded_above() {
        let mut r = Reservoir::new(7);
        for i in 0..RESERVOIR_CAP {
            r.push(i as f64);
        }
        assert_eq!(r.samples.len(), RESERVOIR_CAP);
        // Exact while under capacity: insertion order preserved.
        assert_eq!(r.samples[0], 0.0);
        assert_eq!(r.samples[RESERVOIR_CAP - 1], (RESERVOIR_CAP - 1) as f64);
        // Past capacity: memory stays bounded, the count keeps going,
        // and replacement actually happens over a long stream.
        for i in 0..(4 * RESERVOIR_CAP) {
            r.push((RESERVOIR_CAP + i) as f64);
        }
        assert_eq!(r.samples.len(), RESERVOIR_CAP);
        assert_eq!(r.seen, 5 * RESERVOIR_CAP as u64);
        assert!(
            r.samples.iter().any(|&v| v >= RESERVOIR_CAP as f64),
            "no late sample ever replaced an early one"
        );
    }
}
