//! The native-CPU backend: host-speed serving on the EIE format.
//!
//! The Retrospective (Han et al., 2023) argues that what aged well about
//! EIE is the *dataflow* — skip zero activations, walk the interleaved
//! CSC slices, accumulate per output row — not the 45 nm implementation.
//! This backend is that argument as code, with the decode and
//! orchestration costs the paper's hardware never paid engineered out:
//!
//! * **Pre-decoded plans** — a layer runs as a [`LayerPlan`] (zero runs
//!   expanded, padding dropped, the PE slices merged into column-major
//!   blocks of 2-byte `accumulator << 4 | code` entries behind a
//!   16-entry LUT), owned by the caller's
//!   [`CompiledModel`](super::CompiledModel) and built once there; every
//!   run walks one contiguous run per live column with no nibble
//!   decoding and no padding test in the inner loop, and never touches
//!   a dead column's bytes.
//! * **A persistent worker pool** — spawned once (lazily) per backend
//!   and parked between runs, instead of `std::thread::scope` spawns
//!   per layer per request.
//! * **Reusable scratch** — broadcast/batch schedules, accumulators and
//!   per-worker output blocks live in session- and worker-owned buffers
//!   that grow to a high-water mark and are then reused, so the warm
//!   hot path performs no internal heap allocation (the returned output
//!   vectors, which the caller owns, are the only per-call
//!   allocations).
//!
//! Batches run through a **fused kernel**: each plan block is walked
//! once for the whole batch (the CSC analogue of the GEMV→GEMM fusion
//! that makes CPU batching pay, Table IV), so batch throughput beats
//! looping the per-item kernel even single-threaded — at the cost of
//! per-item latency, which is exactly the latency-versus-throughput
//! trade the paper frames EIE against.
//!
//! The fused kernel is **batch-lane vectorized**: activations are
//! transposed once per batch into zero-padded lane blocks of one
//! [`LANE_WIDTH`]-item stripe — or, for a dispatch of more than
//! `LANE_WIDTH` items, of two ([`lane_block_items`]) — and each plan
//! entry is applied to a whole lane block as one fixed-width,
//! 32-byte-aligned `[i32; LANE_WIDTH]` MAC per stripe, off a single
//! decode of the entry — a shape the autovectorizer can prove. Two
//! stripes per decode is what lets a 16-item dispatch walk the plan
//! once instead of twice. The walk is **one safe body compiled twice**
//! (and instantiated per stripe count): at the build's baseline
//! features and, on x86-64, under `#[target_feature(enable = "avx2")]`,
//! where the same loops become one 256-bit add per stripe per entry;
//! the host picks per block walk (see [`lane_isa`]). Because every
//! batch item's `Accum32` chain is independent and a padded lane adds
//! a zero product (a no-op), vectorizing across the batch cannot
//! change any item's add sequence.
//!
//! **Rail-free blocks.** Saturation is what the hardware's adder does
//! for free and a CPU pays for on every MAC (baseline x86-64 has no
//! vector saturating `i32` add). Per dispatch, each plan block is asked
//! whether its weights and this dispatch's activation range can reach
//! a rail at all ([`PlanBlock::rail_free_for`]); where they provably
//! cannot, the same kernel bodies run with `wrapping_add` — identical
//! bits, since the two adds agree whenever the exact sum fits — and a
//! block that cannot be proved keeps the saturating instantiation.
//!
//! There is one way to execute a layer: walk its plan on the pool. The
//! single-item walk and the lane walk are the two shapes of that walk;
//! `kernel_sweep` and the property tests hold both bit-exact against
//! the functional golden model before anything is timed.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use eie_compress::{
    LayerPlan, PlanBlock, PlanEntry, BLOCK_ACCUMULATORS, CODEBOOK_SIZE, LANE_WIDTH,
};
use eie_fixed::{Accum32, Q8p8};

use super::pool::{Latch, WorkerPool};
use super::{check_activation_batch, Backend, BackendRun, PlannedLayer};

/// The host's core count, resolved once per process: the thread count
/// of [`NativeCpu::new`], and the cores `ModelServer` splits over its
/// workers ([`BackendKind::per_worker`](super::BackendKind::per_worker)).
///
/// `ModelServer` and `InferenceJob` construct a backend per worker, so
/// this sits on the setup path — one `available_parallelism` syscall
/// for the process lifetime instead of one per construction.
pub fn host_cores() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Splits `n` items into at most `parts` contiguous non-empty ranges —
/// the native dispatcher's per-thread block ranges.
fn contiguous_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, n.max(1));
    let chunk = n.div_ceil(parts).max(1);
    (0..n.div_ceil(chunk))
        .map(|r| (r * chunk, ((r + 1) * chunk).min(n)))
        .collect()
}

/// An optimized, multi-threaded interleaved-CSC SpMV kernel over the
/// compressed [`EncodedLayer`](eie_compress::EncodedLayer) format,
/// executing pre-decoded [`LayerPlan`]s on a persistent worker pool —
/// walking a plan is its only way to execute a layer.
///
/// Bit-exactness with the hardware comes from preserving its arithmetic
/// structure exactly: the format stores strictly increasing rows within
/// a `(PE, column)`, so an accumulator receives at most one product per
/// column, and for any one item columns are visited in broadcast
/// (ascending) order — so every `Accum32` sees the *same sequence of
/// saturating adds* as the cycle model, regardless of how entries are
/// ordered or grouped within a column, how plan blocks are spread
/// across threads, or whether items share a fused pass (plans drop
/// only padding entries, which add a raw zero — a proven no-op under
/// saturating addition; see [`LayerPlan`]).
///
/// Single items split the plan's blocks across the pool; batches run
/// the fused whole-batch kernel, also split by block. A fused batch
/// completes as a unit, so every item of a batched [`BackendRun`]
/// reports the batch's wall time as its latency — batching buys
/// throughput, not latency, as in the paper.
///
/// The engine owns no plans and walks nothing else: a
/// [`PlannedLayer::Plan`] is walked as handed, its blocks spread over
/// `min(threads, blocks)` ranges — a model's plans are cut for the
/// walking engine's threads ([`BackendKind::plan_cut`](super::BackendKind::plan_cut))
/// by whoever fills them
/// ([`CompiledModel::into_plans`](super::CompiledModel::into_plans) in a
/// server, the job itself in
/// [`InferenceJob::submit`](crate::InferenceJob::submit)). An encoded
/// layer ([`PlannedLayer::Encoded`]) is refused with a panic.
///
/// Concurrent calls on one engine serialize on its execution session;
/// for parallel serving give each worker its own backend instance, as
/// `eie-serve`'s `ModelServer` does.
pub struct NativeCpu {
    threads: usize,
    /// Spawned on the first parallel planned run; `threads - 1` parked
    /// workers (the session holder executes the remaining share).
    pool: OnceLock<WorkerPool>,
    /// The single execution session: reusable schedule/scratch buffers
    /// plus the completion latch. Locked for the duration of one layer
    /// run, serializing concurrent callers.
    session: Mutex<Session>,
}

impl std::fmt::Debug for NativeCpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeCpu")
            .field("threads", &self.threads)
            .finish()
    }
}

impl NativeCpu {
    /// A kernel with one worker per available core (resolved once per
    /// process).
    pub fn new() -> Self {
        Self::with_threads(host_cores())
    }

    /// A kernel with an explicit worker count (1 = single-threaded).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "threads must be non-zero");
        Self {
            threads,
            pool: OnceLock::new(),
            session: Mutex::new(Session::new()),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `items` over a plan, splitting its blocks across the pool:
    /// a lone item takes the single-item walk, a batch the lane walk.
    /// Returns `[item][global_row]` outputs.
    fn planned(&self, plan: &Arc<LayerPlan>, items: &[Vec<Q8p8>], relu: bool) -> Vec<Vec<Q8p8>> {
        let b = items.len();
        let mut guard = self.session.lock().expect("session poisoned");
        let session = &mut *guard;
        let input = if let [item] = items {
            let schedule = exclusive(&mut session.single);
            schedule.live.clear();
            schedule.range = (0, 0);
            for (j, &a) in item.iter().enumerate() {
                if !a.is_zero() {
                    schedule.live.push((j as u32, a.raw() as i32));
                    widen(&mut schedule.range, a.raw());
                }
            }
            TaskInput::Single(Arc::clone(&session.single))
        } else {
            let lanes = exclusive(&mut session.lanes);
            if lane_block_items(b) > LANE_WIDTH {
                lanes.fill::<MAX_STRIPES>(items, plan.cols());
            } else {
                lanes.fill::<1>(items, plan.cols());
            }
            TaskInput::Lanes(Arc::clone(&session.lanes))
        };
        let mut outputs: Vec<Vec<Q8p8>> = (0..b).map(|_| vec![Q8p8::ZERO; plan.rows()]).collect();
        let failed = self.dispatch(session, plan, input, relu, &mut |plan, range, scratch| {
            gather(plan, range, b, &scratch.out, &mut outputs);
        });
        // Re-raise a worker panic *after* the session guard drops: the
        // run is fully drained (the latch released), so the session is
        // reusable and the engine keeps working — the panic
        // surfaces at this call site, as the old scoped-thread kernel's
        // did, without bricking the engine.
        drop(guard);
        assert!(!failed, "native kernel pool worker panicked");
        outputs
    }

    /// The dispatch table for an `n`-block plan: the block list cut
    /// into one contiguous range per thread (fewer when the plan has
    /// fewer blocks).
    fn dispatch_ranges(&self, n: usize) -> Vec<(usize, usize)> {
        contiguous_ranges(n, self.threads)
    }

    /// The shared fan-out: build the dispatch table, hand every range
    /// but the first to pool workers, run the first inline, wait, and
    /// let `gather` merge each range's outputs from its worker's
    /// scratch.
    ///
    /// **Merge point.** Ranges hold whole plan blocks, so every
    /// accumulator's saturating-add stream runs inside exactly one
    /// range; `gather` writes each range's finished values into
    /// disjoint cells of the interleaved output. The merge therefore
    /// reorders no adds and overlaps no writes — bit-exact for any
    /// thread count, which the oracle (`tests/oracle.rs`) pins. There
    /// are at most `threads` ranges, so scratch is addressed by worker
    /// slot.
    ///
    /// Returns `true` if a pool worker panicked — the run is drained
    /// (the latch released, every mailbox idle) and gathering stopped;
    /// the caller re-raises once the session guard is gone.
    fn dispatch(
        &self,
        session: &mut Session,
        plan: &Arc<LayerPlan>,
        input: TaskInput,
        relu: bool,
        gather: &mut GatherFn<'_>,
    ) -> bool {
        let n = plan.blocks().len();
        let ranges = self.dispatch_ranges(n);
        if ranges.len() <= 1 {
            run_block_range(plan, &input, (0, n), relu, &mut session.local);
            gather(plan, (0, n), &session.local);
            return false;
        }
        let pool = self.pool.get_or_init(|| WorkerPool::new(self.threads - 1));
        session.latch.reset(ranges.len() - 1);
        for (w, &blocks) in ranges.iter().enumerate().skip(1) {
            pool.submit(
                w - 1,
                Task {
                    plan: Arc::clone(plan),
                    input: input.clone(),
                    blocks,
                    relu,
                    latch: Arc::clone(&session.latch),
                },
            );
        }
        run_block_range(plan, &input, ranges[0], relu, &mut session.local);
        if session.latch.wait() {
            // Gather nothing further: a dead range would leave silently
            // wrong (partial) outputs. The caller re-raises the panic.
            return true;
        }
        gather(plan, ranges[0], &session.local);
        for (w, &blocks) in ranges.iter().enumerate().skip(1) {
            pool.with_scratch(w - 1, |scratch| gather(plan, blocks, scratch));
        }
        drop(input); // release the schedule Arc for next-call reuse
        false
    }
}

impl Default for NativeCpu {
    fn default() -> Self {
        Self::new()
    }
}

/// The harvest callback [`NativeCpu::dispatch`] hands each completed
/// block range to (it interleaves one scratch's output blocks into
/// the caller's global output buffers).
type GatherFn<'a> = dyn FnMut(&LayerPlan, (usize, usize), &WorkerScratch) + 'a;

/// Regains unique access to a session-owned `Arc` buffer. After a run's
/// latch releases, every worker has dropped its clone, so this is a
/// refcount check in the steady state; the fallback allocation only
/// triggers if a buffer somehow leaked (defensive, not expected).
fn exclusive<T: Default>(arc: &mut Arc<T>) -> &mut T {
    if Arc::get_mut(arc).is_none() {
        *arc = Arc::new(T::default());
    }
    Arc::get_mut(arc).expect("freshly allocated Arc is unique")
}

/// The `(largest, smallest)` raw activation of one dispatch, each 0 when
/// no activation has that sign: the `(a⁺, a⁻)` every block's
/// [`PlanBlock::rail_free_for`] is asked about. Recorded by the schedule
/// passes, which touch every activation anyway.
type ActRange = (i16, i16);

/// Widens `range` to include one raw activation.
#[inline]
fn widen(range: &mut ActRange, raw: i16) {
    *range = (range.0.max(raw), range.1.min(raw));
}

/// The per-item broadcast schedule on raw values: `(column, act_raw)`
/// for every non-zero activation, ascending, and their range.
#[derive(Debug, Default)]
pub(super) struct SingleSchedule {
    live: Vec<(u32, i32)>,
    range: ActRange,
}

/// One lane block's worth of one quantity: an accumulator of
/// [`LANE_WIDTH`] items, a column's activations, or one codebook
/// entry's products with them. 32-byte aligned by type, so the 256-bit
/// access the AVX2 instantiation makes of it is an aligned one and can
/// never split a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
struct Stripe([i32; LANE_WIDTH]);

impl Stripe {
    const ZERO: Self = Self([0; LANE_WIDTH]);
}

/// The most [`Stripe`]s one lane block carries: a dispatch of more than
/// [`LANE_WIDTH`] items walks lane blocks of `2 × LANE_WIDTH`, so each
/// plan entry decoded serves sixteen items instead of eight.
const MAX_STRIPES: usize = 2;

/// The items one lane block of a `batch`-item dispatch holds — the
/// group that shares one decode of each plan entry: [`LANE_WIDTH`] up to
/// `LANE_WIDTH` items, `MAX_STRIPES × LANE_WIDTH` above. `kernel_sweep`
/// prices each walk by it.
pub fn lane_block_items(batch: usize) -> usize {
    if batch > LANE_WIDTH {
        MAX_STRIPES * LANE_WIDTH
    } else {
        LANE_WIDTH
    }
}

/// The batch-lane schedule: activations transposed once per batch into
/// lane blocks of `stripes × LANE_WIDTH` items (`stripes` is 1 up to
/// [`LANE_WIDTH`] items, [`MAX_STRIPES`] above), so the kernel can apply
/// one weight to a whole block as `stripes` fixed-width vector MACs.
///
/// Layouts (`blocks = batch.div_ceil(stripes * LANE_WIDTH)`; item `i`
/// sits in stripe `g = i / LANE_WIDTH`, lane `i % LANE_WIDTH`, and stripe
/// `g` is stripe `g % stripes` of lane block `g / stripes`):
/// * `acts[(lb * cols + j) * stripes + s].0[k]` — the raw activation for
///   column `j` of the item in stripe `s`, lane `k` of block `lb`; the
///   last block's missing items are zero (a zero product is a
///   saturating-add no-op, so padded lanes cannot perturb real items
///   and their own lanes are discarded at gather).
/// * `live[lb * cols + j]` — non-zero when *any* item of block `lb` has
///   a non-zero activation in column `j` (the lane analogue of the
///   broadcast schedule's zero-skip: a dead column costs one byte test
///   per block instead of `entries × stripes` MACs).
#[derive(Debug, Default)]
pub(super) struct LaneSchedule {
    acts: Vec<Stripe>,
    live: Vec<u8>,
    cols: usize,
    blocks: usize,
    /// Stripes per lane block: 1 or [`MAX_STRIPES`].
    stripes: usize,
    /// Real items (the last lane block may be padded).
    batch: usize,
    /// Over the whole batch: one item that breaks a block's bound sends
    /// every lane of that block down the saturating path.
    range: ActRange,
}

impl LaneSchedule {
    /// Rebuilds the schedule in place from a batch, in lane blocks of
    /// `S` stripes (buffers reused — steady state allocates nothing
    /// once grown to high water).
    fn fill<const S: usize>(&mut self, batch: &[Vec<Q8p8>], cols: usize) {
        let blocks = batch.len().div_ceil(S * LANE_WIDTH);
        self.cols = cols;
        self.blocks = blocks;
        self.stripes = S;
        self.batch = batch.len();
        self.acts.clear();
        self.acts.resize(blocks * cols * S, Stripe::ZERO);
        self.live.clear();
        self.live.resize(blocks * cols, 0);
        self.range = (0, 0);
        for (i, item) in batch.iter().enumerate() {
            let (g, k) = (i / LANE_WIDTH, i % LANE_WIDTH);
            let (lb, s) = (g / S, g % S);
            for (j, &a) in item.iter().enumerate() {
                if !a.is_zero() {
                    self.acts[(lb * cols + j) * S + s].0[k] = a.raw() as i32;
                    self.live[lb * cols + j] = 1;
                    widen(&mut self.range, a.raw());
                }
            }
        }
    }

    /// Lane block `lb`'s transposed activations (`cols` rows of `S`
    /// stripes).
    #[inline]
    fn acts_block<const S: usize>(&self, lb: usize) -> &[[Stripe; S]] {
        self.acts[lb * self.cols * S..][..self.cols * S]
            .as_chunks()
            .0
    }

    /// Lane block `lb`'s per-column any-live mask (`cols` long).
    #[inline]
    fn live_block(&self, lb: usize) -> &[u8] {
        &self.live[lb * self.cols..][..self.cols]
    }
}

/// One run's shared read-only input, cloned (refcount-only) per worker.
#[derive(Debug, Clone)]
pub(super) enum TaskInput {
    /// One item's broadcast schedule.
    Single(Arc<SingleSchedule>),
    /// A fused batch's transposed lane-block activations.
    Lanes(Arc<LaneSchedule>),
}

/// One worker's unit of work: a contiguous block range of one plan.
#[derive(Debug)]
pub(super) struct Task {
    plan: Arc<LayerPlan>,
    input: TaskInput,
    blocks: (usize, usize),
    relu: bool,
    latch: Arc<Latch>,
}

impl Task {
    /// Executes the task into the worker's scratch.
    pub(super) fn run(&self, scratch: &mut WorkerScratch) {
        run_block_range(&self.plan, &self.input, self.blocks, self.relu, scratch);
    }

    /// The run's completion latch.
    pub(super) fn latch(&self) -> &Arc<Latch> {
        &self.latch
    }
}

/// Reusable per-worker buffers: the accumulators of one plan block at a
/// time and the range's written-back outputs, one span per block (span
/// layout `[accumulator]` for single items,
/// `[accumulator * batch + item]` for fused batches).
///
/// Accumulators are always handed to the kernels as whole
/// `[_; BLOCK_ACCUMULATORS]` arrays — a [`PlanEntry`]'s accumulator
/// field is below that bound for every bit pattern, so the inner loops
/// index without a bounds check, safely. A single item walks `single`
/// (16 KiB of `i32`s); the lane kernel gives every lane block its own
/// `BLOCK_ACCUMULATORS` rows of `stripes` (128 KiB a stripe, of which a
/// block touches its own accumulator count), plus one spare stripe for
/// [`line_aligned`]. Both grow to the high-water mark, then
/// steady-state runs allocate nothing.
#[derive(Debug, Default)]
pub(super) struct WorkerScratch {
    single: Vec<i32>,
    stripes: Vec<Stripe>,
    out: Vec<Q8p8>,
}

/// Walks a block range of a plan into `scratch` — the unit of work
/// shared by pool workers and the session holder's inline share.
fn run_block_range(
    plan: &LayerPlan,
    input: &TaskInput,
    (first, end): (usize, usize),
    relu: bool,
    scratch: &mut WorkerScratch,
) {
    let (b, range) = match input {
        TaskInput::Single(s) => {
            scratch.single.resize(BLOCK_ACCUMULATORS, 0);
            (1, s.range)
        }
        TaskInput::Lanes(schedule) => {
            // One spare stripe, so the walk can start on a 64-byte line
            // ([`line_aligned`]).
            let stripes = schedule.blocks * schedule.stripes * BLOCK_ACCUMULATORS + 1;
            if scratch.stripes.len() < stripes {
                scratch.stripes.resize(stripes, Stripe::ZERO);
            }
            (schedule.batch, schedule.range)
        }
    };
    let blocks = &plan.blocks()[first..end];
    let total: usize = blocks.iter().map(|block| block.accumulators() * b).sum();
    scratch.out.resize(total, Q8p8::ZERO);
    let mut offset = 0;
    for block in blocks {
        let span = block.accumulators() * b;
        let out = &mut scratch.out[offset..offset + span];
        let lut = plan.lut();
        // The one place a kernel is chosen: wrapping adds only where
        // the block's bound proves, for this dispatch's activations,
        // that no partial sum leaves `i32` (see [`PlanBlock`]).
        let rail_free = block.rail_free_for(range.0, range.1);
        match input {
            TaskInput::Single(s) => {
                let accum = scratch
                    .single
                    .as_mut_slice()
                    .try_into()
                    .expect("scratch holds a whole block of accumulators");
                if rail_free {
                    block_single::<true>(block, lut, &s.live, accum, out, relu);
                } else {
                    block_single::<false>(block, lut, &s.live, accum, out, relu);
                }
            }
            TaskInput::Lanes(schedule) => {
                let walk = LaneWalk {
                    block,
                    lut,
                    schedule,
                    rail_free,
                    relu,
                };
                let accum = line_aligned(&mut scratch.stripes);
                if schedule.stripes == 1 {
                    block_lanes::<1>(walk, accum, out);
                } else {
                    block_lanes::<MAX_STRIPES>(walk, accum, out);
                }
            }
        }
        offset += span;
    }
}

/// `stripes` from its first 64-byte cache-line boundary: a two-stripe
/// accumulator row is one whole line there, where from a line's middle
/// every entry touches two (the two-stripe walk of full-scale Alex-7
/// measured ≈ 1.4–1.6× slower so).
fn line_aligned(stripes: &mut [Stripe]) -> &mut [Stripe] {
    let skew = stripes.as_ptr() as usize % 64 / std::mem::size_of::<Stripe>();
    &mut stripes[skew..]
}

/// The steady-state single-item kernel: for every live column, one
/// contiguous run of 2-byte entries — `accum[e >> 4] += lut[e & 15] * a`,
/// the sixteen `lut × a` products taken once per column — with no
/// nibble decoding, no padding test and no per-PE loop; a dead column's
/// run is never touched. Each accumulator receives at
/// most one product per column and columns ascend, so its add sequence
/// is identical to the cycle model's (see [`LayerPlan`]).
/// `RAIL_FREE` selects the add and nothing else ([`accumulate`]).
///
/// The run is walked four entries at a time, then its remainder — the
/// same adds in the same order, with one taken branch per four entries
/// where an entry-at-a-time loop retires one per entry (9 instructions
/// per entry become 6.75, on a walk that is instruction-bound).
fn block_single<const RAIL_FREE: bool>(
    block: &PlanBlock,
    lut: &[i32; CODEBOOK_SIZE],
    schedule: &[(u32, i32)],
    accum: &mut [i32; BLOCK_ACCUMULATORS],
    out: &mut [Q8p8],
    relu: bool,
) {
    accum[..out.len()].fill(0);
    for &(j, a) in schedule {
        // Raw weights and activations are i16-range (Q8.8), so the
        // product fits i32 exactly; only the accumulate can saturate.
        let products = lut.map(|w| w * a);
        let mut step = |e: &PlanEntry| {
            let acc = &mut accum[e.accumulator()];
            *acc = accumulate::<RAIL_FREE>(*acc, products[e.code()]);
        };
        let (quads, rest) = block.col(j as usize).as_chunks::<4>();
        for quad in quads {
            for e in quad {
                step(e);
            }
        }
        for e in rest {
            step(e);
        }
    }
    for (slot, &acc) in out.iter_mut().zip(accum.iter()) {
        *slot = writeback(acc, relu);
    }
}

/// What one lane walk of one plan block reads — the arguments the
/// dispatcher and both instantiations of the body share.
#[derive(Clone, Copy)]
struct LaneWalk<'a> {
    block: &'a PlanBlock,
    lut: &'a [i32; CODEBOOK_SIZE],
    schedule: &'a LaneSchedule,
    /// Whether [`PlanBlock::rail_free_for`] held for this dispatch.
    rail_free: bool,
    relu: bool,
}

/// The batch-lane fused kernel over a plan block, dispatched once per
/// block walk to the instantiation of [`block_lanes_body`] this host
/// runs fastest: under AVX2 where the CPU has it, at the build's
/// baseline features otherwise (and always, off x86-64). Both are the
/// same safe source, so they cannot disagree by construction; the
/// module's tests hold them stripe-for-stripe equal anyway.
fn block_lanes<const S: usize>(walk: LaneWalk<'_>, accum: &mut [Stripe], out: &mut [Q8p8]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `block_lanes_avx2` is a safe function whose only
        // requirement is that the CPU executing it supports AVX2 —
        // detected on this CPU by the condition one line above.
        #[allow(unsafe_code)]
        unsafe {
            block_lanes_avx2::<S>(walk, accum, out)
        };
        return;
    }
    block_lanes_body::<S>(walk, accum, out);
}

/// [`block_lanes_body`] compiled with AVX2 enabled: the body, the MAC
/// span and the add are all `#[inline(always)]`, so the whole walk is
/// generated inside this function, under its target features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_lanes_avx2<const S: usize>(walk: LaneWalk<'_>, accum: &mut [Stripe], out: &mut [Q8p8]) {
    block_lanes_body::<S>(walk, accum, out);
}

/// The one lane walk: one plan entry × one lane block of `S` stripes
/// (`S × LANE_WIDTH` items) per MAC step, as `S` fixed-width [`Stripe`]
/// multiply-accumulates off one entry decode ([`mac_span`]) — wrapping
/// when the caller proved the block `rail_free` for this batch,
/// saturating otherwise. Lane blocks outermost, live columns ascending
/// inside.
///
/// **Add-order invariant.** For any one item (one lane `k` of stripe `s`
/// of one lane block `lb`), accumulator `(acc, lb, s, k)` receives at
/// most one product per column, from columns in ascending order —
/// exactly the single-item kernel's sequence. Other lanes and stripes
/// belong to other items (independent accumulator chains), and a lane
/// whose item has a zero activation (or doesn't exist, in a padded tail
/// block) adds a zero product — a no-op under either add, and inside
/// the rail-free bound (which is taken over the whole batch). So
/// vectorizing across the batch, at either stripe count, cannot change
/// any item's saturation behaviour.
///
/// Accumulators are lane-aligned — stripe
/// `(lb * BLOCK_ACCUMULATORS + acc) * S + s`, lane `k`, so one entry's
/// `S` stripes are adjacent — and written back to
/// `[acc * batch + item]`, dropping padded lanes.
#[inline(always)]
fn block_lanes_body<const S: usize>(walk: LaneWalk<'_>, accum: &mut [Stripe], out: &mut [Q8p8]) {
    let LaneWalk {
        block,
        lut,
        schedule,
        rail_free,
        relu,
    } = walk;
    let (accs, batch) = (block.accumulators(), schedule.batch);
    let rows = accum.as_chunks_mut::<S>().0;
    for lb in 0..schedule.blocks {
        let acc: &mut [[Stripe; S]; BLOCK_ACCUMULATORS] = (&mut rows[lb * BLOCK_ACCUMULATORS..]
            [..BLOCK_ACCUMULATORS])
            .try_into()
            .expect("scratch holds a whole block of stripes per lane block");
        acc[..accs].fill([Stripe::ZERO; S]);
        let live = schedule.live_block(lb);
        for (j, a) in schedule.acts_block::<S>(lb).iter().enumerate() {
            if live[j] == 0 {
                continue;
            }
            if rail_free {
                mac_span::<true, S>(block.col(j), lut, a, acc);
            } else {
                mac_span::<false, S>(block.col(j), lut, a, acc);
            }
        }
    }
    for r in 0..accs {
        let row_out = &mut out[r * batch..][..batch];
        for (i, slot) in row_out.iter_mut().enumerate() {
            let (g, k) = (i / LANE_WIDTH, i % LANE_WIDTH);
            *slot = writeback(rows[g / S * BLOCK_ACCUMULATORS + r][g % S].0[k], relu);
        }
    }
}

/// The one add of every plan kernel. `RAIL_FREE` may be `true` only for
/// a block whose [`PlanBlock::rail_free_for`] held for this dispatch:
/// the exact sum then fits `i32`, where wrapping and saturating add
/// return the same bits (debug builds re-check it at every step).
#[inline(always)]
fn accumulate<const RAIL_FREE: bool>(acc: i32, p: i32) -> i32 {
    if RAIL_FREE {
        debug_assert!(acc.checked_add(p).is_some(), "rail-free bound violated");
        acc.wrapping_add(p)
    } else {
        acc.saturating_add(p)
    }
}

/// One lane step: `S` product stripes accumulated into an entry's `S`
/// accumulator stripes, lane by lane — fixed-width loops with no early
/// exit, which vectorize to one plain add per vector when `RAIL_FREE`
/// and to a synthesized saturating add (overflow detect plus a rail
/// blend) otherwise.
#[inline(always)]
fn add_stripes<const RAIL_FREE: bool, const S: usize>(
    acc: &mut [Stripe; S],
    products: &[Stripe; S],
) {
    for (stripe, product) in acc.iter_mut().zip(products) {
        for (slot, &p) in stripe.0.iter_mut().zip(&product.0) {
            *slot = accumulate::<RAIL_FREE>(*slot, p);
        }
    }
}

/// One weight times one lane block's `S` activation stripes. Raw
/// weights and activations are i16-range Q8.8, so every product fits
/// `i32` exactly; only the accumulate can saturate.
///
/// A plain loop into a local on purpose: `a.0.map(..)` compiles, under
/// `target_feature`, to an out-of-line `core::array` call built at
/// baseline features (measured −15 % on the lane walk).
#[inline(always)]
fn product_stripes<const S: usize>(w: i32, a: &[Stripe; S]) -> [Stripe; S] {
    let mut products = [Stripe::ZERO; S];
    for (product, stripe) in products.iter_mut().zip(a) {
        for (p, &ak) in product.0.iter_mut().zip(&stripe.0) {
            *p = w * ak;
        }
    }
    products
}

/// One column's MAC span: every plan entry of the run times one lane
/// block's `S` activation stripes, accumulated into the lane-aligned
/// accumulator stripes — one entry decode per `S × LANE_WIDTH` items.
///
/// A long run keeps the multiply out of the per-entry loop: a column
/// has only [`CODEBOOK_SIZE`] distinct `weight × activation-block`
/// product rows, computed up front (16 rows of `S` stripes for a
/// 366-entry Alex-7 run), and the entry step is `S` stripe adds —
/// walked four entries at a time like [`block_single`], in the same
/// order. A run shorter than the table multiplies per entry instead,
/// into a local first so that the multiply stays vector operations
/// rather than scalar ones folded into the add. The products are the
/// same `i32`s either way.
#[inline(always)]
fn mac_span<const RAIL_FREE: bool, const S: usize>(
    entries: &[PlanEntry],
    lut: &[i32; CODEBOOK_SIZE],
    a: &[Stripe; S],
    accum: &mut [[Stripe; S]; BLOCK_ACCUMULATORS],
) {
    if entries.len() < CODEBOOK_SIZE {
        for e in entries {
            let products = product_stripes(lut[e.code()], a);
            add_stripes::<RAIL_FREE, S>(&mut accum[e.accumulator()], &products);
        }
        return;
    }
    let mut products = [[Stripe::ZERO; S]; CODEBOOK_SIZE];
    for (row, &w) in products.iter_mut().zip(lut) {
        *row = product_stripes(w, a);
    }
    let (quads, rest) = entries.as_chunks::<4>();
    for quad in quads {
        for e in quad {
            add_stripes::<RAIL_FREE, S>(&mut accum[e.accumulator()], &products[e.code()]);
        }
    }
    for e in rest {
        add_stripes::<RAIL_FREE, S>(&mut accum[e.accumulator()], &products[e.code()]);
    }
}

/// Which instantiation of the lane walk a batch dispatches to on this
/// host: `"avx2"` when the CPU has it, `"baseline"` (the same
/// body at the build's default target features) otherwise. Recorded by
/// `kernel_sweep` so committed numbers say what they measured, and
/// printed by `eie serve` / `eie inspect`.
pub fn lane_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

/// Scatters a worker's output spans (`[accumulator * batch + item]`
/// per block) to per-item global rows.
fn gather(
    plan: &LayerPlan,
    (first, end): (usize, usize),
    batch: usize,
    worker_out: &[Q8p8],
    outputs: &mut [Vec<Q8p8>],
) {
    let mut stripes = worker_out.chunks_exact(batch);
    for b in first..end {
        for (row, stripe) in plan.block_rows(b).zip(&mut stripes) {
            for (i, &v) in stripe.iter().enumerate() {
                outputs[i][row] = v;
            }
        }
    }
}

/// The shift-saturate(-ReLU) writeback stage (identical rounding and
/// clamping to the hardware's, via [`Accum32::to_fix16`]).
fn writeback(acc_raw: i32, relu: bool) -> Q8p8 {
    let v = Accum32::from_raw(acc_raw).to_fix16::<8>();
    if relu {
        v.relu()
    } else {
        v
    }
}

/// The session-holder side of one run: reusable schedule buffers, the
/// completion latch, and the holder's own scratch (it executes the
/// first block range inline while the pool runs the rest).
struct Session {
    single: Arc<SingleSchedule>,
    lanes: Arc<LaneSchedule>,
    latch: Arc<Latch>,
    local: WorkerScratch,
}

impl Session {
    fn new() -> Self {
        Self {
            single: Arc::default(),
            lanes: Arc::new(LaneSchedule::default()),
            latch: Arc::new(Latch::new()),
            local: WorkerScratch::default(),
        }
    }
}

/// Wraps fused per-item outputs into runs that all report the batch's
/// wall time as their latency: a fused batch completes as a unit, so
/// that *is* each item's serving latency. The amortized cost is the
/// wall divided over the batch — the distribution callers should rank
/// at batch > 1 (see [`BackendRun::amortized_s`]).
fn fused_runs(outputs: Vec<Vec<Q8p8>>, wall_s: f64) -> Vec<BackendRun> {
    let amortized_s = wall_s / outputs.len().max(1) as f64;
    outputs
        .into_iter()
        .map(|outputs| BackendRun {
            outputs,
            latency_s: wall_s,
            amortized_s,
            stats: None,
        })
        .collect()
}

impl Backend for NativeCpu {
    fn name(&self) -> &'static str {
        "native-cpu"
    }

    fn run_layer_batch_planned(
        &self,
        planned: PlannedLayer<'_>,
        batch: &[Vec<Q8p8>],
        relu: bool,
    ) -> Vec<BackendRun> {
        let plan = planned.plan();
        check_activation_batch(plan.cols(), batch);
        if batch.is_empty() {
            return Vec::new();
        }
        let start = Instant::now();
        let outputs = self.planned(plan, batch, relu);
        fused_runs(outputs, start.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendKind;
    use eie_compress::{compress, CompressConfig, EncodedLayer};
    use eie_nn::zoo::Benchmark;
    use eie_sim::functional;

    fn quantize(acts: &[f32]) -> Vec<Q8p8> {
        acts.iter().map(|&a| Q8p8::from_f32(a)).collect()
    }

    /// Walks `enc` on `engine` through a plan cut for the engine's
    /// threads, built for the call.
    fn run_encoded(
        engine: &NativeCpu,
        enc: &EncodedLayer,
        batch: &[Vec<Q8p8>],
        relu: bool,
    ) -> Vec<BackendRun> {
        let plan = Arc::new(LayerPlan::build_with_blocks(enc, engine.threads()));
        engine.run_layer_batch_planned(PlannedLayer::Plan(&plan), batch, relu)
    }

    #[test]
    fn single_item_matches_golden_model_across_thread_counts() {
        let layer = Benchmark::Alex6.generate_scaled(4, 64);
        let enc = compress(&layer.weights, CompressConfig::with_pes(8));
        let acts = quantize(&layer.sample_activations(2));
        let expected = functional::execute(&enc, &acts, false);
        for threads in [1, 2, 3, 8, 16] {
            let run = run_encoded(
                &NativeCpu::with_threads(threads),
                &enc,
                std::slice::from_ref(&acts),
                false,
            )
            .remove(0);
            assert_eq!(run.outputs, expected, "diverged at {threads} threads");
        }
    }

    #[test]
    fn fused_batch_matches_golden_model_item_by_item() {
        let layer = Benchmark::Vgg8.generate_scaled(1, 64);
        let enc = compress(&layer.weights, CompressConfig::with_pes(4));
        let batch: Vec<Vec<Q8p8>> = (0..7)
            .map(|i| quantize(&layer.sample_activations(i)))
            .collect();
        for threads in [1, 4] {
            let runs = run_encoded(&NativeCpu::with_threads(threads), &enc, &batch, true);
            assert_eq!(runs.len(), 7);
            for (acts, run) in batch.iter().zip(&runs) {
                assert_eq!(run.outputs, functional::execute(&enc, acts, true));
                assert!(run.latency_s >= 0.0);
                assert!(run.stats.is_none());
            }
            // Fused items complete together: identical reported latency.
            assert!(runs.iter().all(|r| r.latency_s == runs[0].latency_s));
        }
    }

    #[test]
    fn fused_batch_handles_all_zero_items_and_columns() {
        let layer = Benchmark::Alex8.generate_scaled(5, 64);
        let enc = compress(&layer.weights, CompressConfig::with_pes(2));
        let mut batch: Vec<Vec<Q8p8>> = (0..3)
            .map(|i| quantize(&layer.sample_activations(i)))
            .collect();
        batch[1] = vec![Q8p8::ZERO; enc.cols()]; // dead item
        let runs = run_encoded(&NativeCpu::with_threads(2), &enc, &batch, false);
        assert!(runs[1].outputs.iter().all(|v| v.is_zero()));
        for (acts, run) in batch.iter().zip(&runs) {
            assert_eq!(run.outputs, functional::execute(&enc, acts, false));
        }
    }

    #[test]
    fn relu_applies_on_writeback() {
        let layer = Benchmark::NtWe.generate_scaled(3, 32);
        let enc = compress(&layer.weights, CompressConfig::with_pes(2));
        let acts = quantize(&layer.sample_activations(5));
        let backend = NativeCpu::with_threads(2);
        let raw = run_encoded(&backend, &enc, std::slice::from_ref(&acts), false).remove(0);
        let relu = run_encoded(&backend, &enc, std::slice::from_ref(&acts), true).remove(0);
        assert!(raw.outputs.iter().any(|v| v.to_f32() < 0.0));
        assert!(relu.outputs.iter().all(|v| v.to_f32() >= 0.0));
    }

    #[test]
    fn plan_kernels_are_bit_exact_with_golden() {
        let layer = Benchmark::Vgg6.generate_scaled(3, 96);
        let enc = compress(&layer.weights, CompressConfig::with_pes(8));
        let batch: Vec<Vec<Q8p8>> = (0..5)
            .map(|i| quantize(&layer.sample_activations(10 + i)))
            .collect();
        for threads in [1, 4] {
            let plan = NativeCpu::with_threads(threads);
            for relu in [false, true] {
                let golden: Vec<_> = batch
                    .iter()
                    .map(|acts| functional::execute(&enc, acts, relu))
                    .collect();
                let p = run_encoded(&plan, &enc, &batch[..1], relu).remove(0);
                assert_eq!(p.outputs, golden[0], "single diverged ({threads}t)");
                let pb = run_encoded(&plan, &enc, &batch, relu);
                for i in 0..batch.len() {
                    assert_eq!(pb[i].outputs, golden[i], "batch item {i} ({threads}t)");
                }
            }
        }
    }

    #[test]
    fn lane_kernel_matches_golden_at_remainder_batches() {
        // Every batch from 2 through 33: each remainder class of the
        // one-stripe blocks (up to LANE_WIDTH) and of the two-stripe
        // blocks above it, exact multiples, and a lone spillover lane
        // into a third block.
        let layer = Benchmark::Alex6.generate_scaled(3, 96);
        let enc = compress(&layer.weights, CompressConfig::with_pes(8));
        for b in 2..=4 * LANE_WIDTH + 1 {
            let batch: Vec<Vec<Q8p8>> = (0..b)
                .map(|i| quantize(&layer.sample_activations(i as u64)))
                .collect();
            for threads in [1, 4] {
                let lanes = NativeCpu::with_threads(threads);
                for relu in [false, true] {
                    let lv = run_encoded(&lanes, &enc, &batch, relu);
                    for i in 0..b {
                        assert_eq!(
                            lv[i].outputs,
                            functional::execute(&enc, &batch[i], relu),
                            "batch {b} item {i} diverged ({threads}t, relu {relu})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multi_block_layers_match_golden_on_every_path() {
        // 8791 rows: three plan blocks whose cuts fall inside PE
        // slices (NT-Wd's shape), walked single, fused and threaded.
        let m = eie_nn::zoo::random_sparse(8791, 40, 0.03, 5);
        let enc = compress(&m, CompressConfig::with_pes(64));
        let batch: Vec<Vec<Q8p8>> = (0..9)
            .map(|i| quantize(&eie_nn::zoo::sample_activations(40, 0.6, true, i)))
            .collect();
        let want: Vec<_> = batch
            .iter()
            .map(|acts| functional::execute(&enc, acts, false))
            .collect();
        for threads in [1, 2, 3] {
            let engine = NativeCpu::with_threads(threads);
            assert_eq!(
                run_encoded(&engine, &enc, &batch[..1], false)
                    .remove(0)
                    .outputs,
                want[0]
            );
            let runs = run_encoded(&engine, &enc, &batch, false);
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(run.outputs, want[i], "item {i} ({threads}t)");
            }
        }
    }

    #[test]
    fn wider_engines_walk_a_coarser_shared_plan_as_is() {
        let layer = Benchmark::Alex7.generate_scaled(8, 64);
        let enc = compress(&layer.weights, CompressConfig::with_pes(8));
        let shared = Arc::new(LayerPlan::build_with_blocks(&enc, 2));
        let snapshot = (*shared).clone();
        assert_eq!(shared.blocks().len(), 2);
        let planned = PlannedLayer::Plan(&shared);
        let batch: Vec<Vec<Q8p8>> = (0..5)
            .map(|i| quantize(&layer.sample_activations(i)))
            .collect();
        let want: Vec<_> = batch
            .iter()
            .map(|acts| functional::execute(&enc, acts, true))
            .collect();
        // Every engine walks the two-block plan on min(threads, 2)
        // ranges, single and fused, and leaves it as handed.
        for threads in [1, 2, 3] {
            let engine = NativeCpu::with_threads(threads);
            let ranges = engine.dispatch_ranges(shared.blocks().len());
            assert_eq!(ranges.len(), threads.min(2));
            let got = engine.run_layer_batch_planned(planned, &batch, true);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(&g.outputs, w, "item {i} ({threads}t)");
            }
            let solo = engine
                .run_layer_batch_planned(planned, &batch[..1], true)
                .remove(0);
            assert_eq!(solo.outputs, want[0], "solo ({threads}t)");
        }
        assert_eq!(*shared, snapshot, "the shared plan is never modified");
    }

    #[test]
    fn fused_runs_amortize_wall_over_the_batch() {
        let layer = Benchmark::Alex7.generate_scaled(4, 64);
        let enc = compress(&layer.weights, CompressConfig::with_pes(4));
        let batch: Vec<Vec<Q8p8>> = (0..6)
            .map(|i| quantize(&layer.sample_activations(i)))
            .collect();
        let backend = NativeCpu::with_threads(2);
        let runs = run_encoded(&backend, &enc, &batch, false);
        for run in &runs {
            // Fused: every item carries the batch wall, amortized 1/6.
            assert_eq!(run.latency_s, runs[0].latency_s);
            assert!((run.amortized_s - run.latency_s / 6.0).abs() < 1e-15);
        }
        // Solo runs keep amortized == latency.
        let solo = run_encoded(&backend, &enc, &batch[..1], false).remove(0);
        assert_eq!(solo.amortized_s, solo.latency_s);
    }

    #[test]
    fn dispatch_ranges_tile_the_block_list() {
        // One contiguous range per thread, the remainder on the last.
        let engine = NativeCpu::with_threads(4);
        assert_eq!(
            engine.dispatch_ranges(8),
            vec![(0, 2), (2, 4), (4, 6), (6, 8)]
        );
        assert_eq!(
            NativeCpu::with_threads(3).dispatch_ranges(8),
            vec![(0, 3), (3, 6), (6, 8)]
        );
        // Never more ranges than blocks or threads, and the ranges
        // always cover the axis exactly, in order.
        for (threads, blocks) in [(5, 17), (2, 4), (8, 3), (1, 9), (3, 0)] {
            let ranges = NativeCpu::with_threads(threads).dispatch_ranges(blocks);
            assert!(ranges.len() <= threads.min(blocks));
            let mut next = 0;
            for (a, b) in ranges {
                assert_eq!(a, next);
                assert!(b > a);
                next = b;
            }
            assert_eq!(next, blocks);
        }
    }

    #[test]
    fn lane_isa_reports_a_known_path() {
        let isa = super::lane_isa();
        assert!(isa == "avx2" || isa == "baseline", "{isa}");
        #[cfg(target_arch = "x86_64")]
        assert_eq!(isa == "avx2", std::arch::is_x86_feature_detected!("avx2"));
    }

    /// Walks the first block of `plan` for `items` in lane blocks of `S`
    /// stripes through the baseline body and through the dispatcher (the
    /// AVX2 instantiation, where the host has it), holds the two
    /// stripe-for-stripe equal — padded lanes included — and equal to an
    /// `i64` reference that clamps like `Accum32`. `lut` is a parameter
    /// so a test can plant any `i32` as a product; `rail_free` of `None`
    /// asks the block, as `run_block_range` does. Returns
    /// `(rail_free, clamped)`.
    fn assert_lane_walks_agree<const S: usize>(
        plan: &LayerPlan,
        lut: &[i32; CODEBOOK_SIZE],
        items: &[Vec<Q8p8>],
        rail_free: Option<bool>,
    ) -> (bool, bool) {
        let block = &plan.blocks()[0];
        let (accs, b) = (block.accumulators(), items.len());
        let mut schedule = LaneSchedule::default();
        schedule.fill::<S>(items, plan.cols());
        let (max, min) = schedule.range;
        let rail_free = rail_free.unwrap_or_else(|| block.rail_free_for(max, min));
        let input = LaneWalk {
            block,
            lut,
            schedule: &schedule,
            rail_free,
            relu: false,
        };
        let stripe = |i: usize, acc: usize| {
            let g = i / LANE_WIDTH;
            (
                (g / S * BLOCK_ACCUMULATORS + acc) * S + g % S,
                i % LANE_WIDTH,
            )
        };
        let walk = |kernel: fn(LaneWalk<'_>, &mut [Stripe], &mut [Q8p8])| {
            let mut stripes = vec![Stripe::ZERO; schedule.blocks * S * BLOCK_ACCUMULATORS];
            let mut out = vec![Q8p8::ZERO; accs * b];
            kernel(input, &mut stripes, &mut out);
            (stripes, out)
        };
        let baseline = walk(block_lanes_body::<S>);
        let dispatched = walk(block_lanes::<S>);
        assert!(baseline == dispatched, "instantiations diverged, batch {b}");

        let (rails, mut clamped) = (i32::MIN as i64..=i32::MAX as i64, false);
        let mut want = vec![Stripe::ZERO; schedule.blocks * S * BLOCK_ACCUMULATORS];
        for (i, item) in items.iter().enumerate() {
            for (j, a) in item.iter().enumerate() {
                for e in block.col(j) {
                    let (at, k) = stripe(i, e.accumulator());
                    let acc = &mut want[at].0[k];
                    let exact = *acc as i64 + lut[e.code()] as i64 * a.raw() as i64;
                    clamped |= !rails.contains(&exact);
                    *acc = exact.clamp(*rails.start(), *rails.end()) as i32;
                }
            }
        }
        assert!(baseline.0 == want, "walk diverged from the reference");
        for (r, row) in baseline.1.chunks(b).enumerate() {
            for (i, &got) in row.iter().enumerate() {
                let (at, k) = stripe(i, r);
                assert_eq!(got, writeback(want[at].0[k], false), "row {r} item {i}");
            }
        }
        (rail_free, clamped)
    }

    /// `rows × cols` of weights and `batch` items of activations, each
    /// drawn from `±(low .. low + spread)`, three cells in four kept.
    fn dense_case(
        (rows, cols, batch): (usize, usize, usize),
        (low, spread): (f32, u64),
        seed: u64,
    ) -> (EncodedLayer, Vec<Vec<Q8p8>>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut value = move || {
            let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
            (next() % 4 != 0).then(|| sign * (low + (next() % spread) as f32))
        };
        let cells: Vec<(usize, usize, f32)> = (0..rows * cols)
            .filter_map(|i| Some((i / cols, i % cols, value()?)))
            .collect();
        let m = eie_nn::CsrMatrix::from_triplets(rows, cols, &cells);
        let items = (0..batch)
            .map(|_| {
                (0..cols)
                    .map(|_| Q8p8::from_f32(value().unwrap_or(0.0)))
                    .collect()
            })
            .collect();
        (compress(&m, CompressConfig::with_pes(2)), items)
    }

    #[test]
    fn both_instantiations_agree_on_rail_free_and_saturating_blocks() {
        // Column runs shorter (9 of 12 rows) and longer (30 of 40) than
        // the codebook, every lane-remainder batch at one and two
        // stripes per lane block, and weights × activations either
        // nowhere near a rail (|w|, |a| < 2) or brushing it within two
        // adds (|w|, |a| ≈ 100..127).
        for rows in [12, 40] {
            for batch in (1..=17).chain([24, 25, 33]) {
                let seed = (rows * 31 + batch) as u64;
                let (enc, items) = dense_case((rows, 10, batch), (0.5, 2), seed);
                let plan = LayerPlan::build(&enc);
                let one = assert_lane_walks_agree::<1>(&plan, plan.lut(), &items, None);
                let two = assert_lane_walks_agree::<2>(&plan, plan.lut(), &items, None);
                assert!(
                    one == (true, false) && two == one,
                    "small case {rows}x{batch}"
                );

                let (enc, items) = dense_case((rows, 10, batch), (100.0, 28), seed);
                let plan = LayerPlan::build(&enc);
                let one = assert_lane_walks_agree::<1>(&plan, plan.lut(), &items, None);
                let two = assert_lane_walks_agree::<2>(&plan, plan.lut(), &items, None);
                assert!(
                    one == (false, true) && two == one,
                    "near-rail case {rows}x{batch}"
                );
            }
        }
    }

    #[test]
    fn four_at_a_time_walks_handle_every_run_length_remainder() {
        // Column `j` holds a run of exactly `LENS[j]` entries: every
        // remainder of the four-at-a-time loops, for the single walk
        // (always chunked) and the lane walk's striped branch (runs of
        // at least CODEBOOK_SIZE), plus the per-entry short runs.
        const LENS: [usize; 20] = [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
        ];
        let cells: Vec<(usize, usize, f32)> = LENS
            .iter()
            .enumerate()
            .flat_map(|(j, &len)| (0..len).map(move |r| (r, j, ((r + j) % 7) as f32 - 3.5)))
            .collect();
        let m = eie_nn::CsrMatrix::from_triplets(25, LENS.len(), &cells);
        let enc = compress(&m, CompressConfig::with_pes(1));
        let plan = LayerPlan::build(&enc);
        for (j, &len) in LENS.iter().enumerate() {
            assert_eq!(plan.blocks()[0].col(j).len(), len);
        }
        let items: Vec<Vec<Q8p8>> = (0..11)
            .map(|i| quantize(&eie_nn::zoo::sample_activations(LENS.len(), 0.8, true, i)))
            .collect();
        for items in [&items[..3], &items[..]] {
            let (rail_free, _) = assert_lane_walks_agree::<1>(&plan, plan.lut(), items, None);
            assert!(rail_free);
            assert_lane_walks_agree::<1>(&plan, plan.lut(), items, Some(false));
            assert_lane_walks_agree::<2>(&plan, plan.lut(), items, None);
            assert_lane_walks_agree::<2>(&plan, plan.lut(), items, Some(false));
        }
        let engine = NativeCpu::with_threads(1);
        for item in &items {
            let got = run_encoded(&engine, &enc, std::slice::from_ref(item), false)
                .remove(0)
                .outputs;
            assert_eq!(got, functional::execute(&enc, item, false));
        }
    }

    /// The saturating add of both instantiations, exhaustively around
    /// the rails: every accumulator value × product of the sets below,
    /// in every lane of one- and two-stripe lane blocks, through the
    /// per-entry and the striped form. The property suites only reach the rails through whole
    /// layers; this reaches every sign and overflow combination.
    #[test]
    fn saturating_step_is_exact_at_every_rail_adjacent_value_in_both_instantiations() {
        use eie_compress::{encode_with_codebook, Codebook};
        const ACCS: [i32; 7] = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
        let products: Vec<i32> = ACCS.iter().copied().chain([1 << 30, -(1 << 30)]).collect();
        let n = products.len();
        // Code `c + 1`'s LUT slot holds `products[c]` outright (`ACCS`
        // is its prefix) and the activations are one-hot 1s, so column
        // 0 moves accumulator `i * n + c` from zero to `accs[i]` and
        // column 1 adds `products[c]` to it, in one lane; every other
        // lane adds zero.
        let mut lut = [0i32; CODEBOOK_SIZE];
        lut[1..=n].copy_from_slice(&products);
        let centroids: Vec<f32> = (1..=n).map(|c| c as f32).collect();
        // All of `ACCS` at once is a run of 63 (striped); one value at
        // a time is a run of 9 (per entry).
        let singles: Vec<&[i32]> = ACCS.chunks(1).collect();
        for accs in [&ACCS[..]].into_iter().chain(singles) {
            let cells: Vec<(usize, usize, f32)> = (0..accs.len() * n)
                .flat_map(|r| {
                    let first = ACCS.iter().position(|&v| v == accs[r / n]);
                    let acc_code = first.expect("accs is drawn from ACCS") + 1;
                    [(r, 0, acc_code as f32), (r, 1, centroids[r % n])]
                })
                .collect();
            let enc = encode_with_codebook(
                &eie_nn::CsrMatrix::from_triplets(accs.len() * n, 2, &cells),
                Codebook::from_centroids(&centroids),
                CompressConfig::with_pes(1),
            );
            let plan = LayerPlan::build(&enc);
            assert_eq!(plan.blocks()[0].col(1).len(), accs.len() * n);
            let one_hot = |width: usize, lane: usize| {
                let mut items = vec![vec![Q8p8::ZERO; 2]; width];
                items[lane] = vec![Q8p8::from_raw(1); 2];
                items
            };
            for lane in 0..LANE_WIDTH {
                let items = one_hot(LANE_WIDTH, lane);
                let (_, clamped) = assert_lane_walks_agree::<1>(&plan, &lut, &items, Some(false));
                assert_eq!(clamped, accs != [0], "only a zero accumulator stays inside");
            }
            for lane in 0..MAX_STRIPES * LANE_WIDTH {
                let items = one_hot(MAX_STRIPES * LANE_WIDTH, lane);
                let (_, clamped) =
                    assert_lane_walks_agree::<MAX_STRIPES>(&plan, &lut, &items, Some(false));
                assert_eq!(clamped, accs != [0], "only a zero accumulator stays inside");
            }
        }
    }

    #[test]
    fn stripes_are_32_byte_aligned_by_type_and_in_the_worker_scratch() {
        assert_eq!(std::mem::align_of::<Stripe>(), 32);
        assert_eq!(std::mem::size_of::<Stripe>(), 32);
        let (enc, items) = dense_case((12, 10, 9), (0.5, 2), 7);
        let plan = LayerPlan::build(&enc);
        // Nine items: one lane block of two stripes, walked from the
        // scratch's first 64-byte line so each accumulator row is one
        // whole line.
        assert_eq!(lane_block_items(items.len()), MAX_STRIPES * LANE_WIDTH);
        let mut schedule = LaneSchedule::default();
        schedule.fill::<MAX_STRIPES>(&items, plan.cols());
        let input = TaskInput::Lanes(Arc::new(schedule));
        let mut scratch = WorkerScratch::default();
        run_block_range(&plan, &input, (0, 1), false, &mut scratch);
        assert_eq!(scratch.stripes.len(), 2 * BLOCK_ACCUMULATORS + 1);
        assert_eq!(scratch.stripes.as_ptr() as usize % 32, 0);
        let walked = line_aligned(&mut scratch.stripes);
        assert_eq!(walked.as_ptr() as usize % 64, 0);
        assert!(walked.len() >= 2 * BLOCK_ACCUMULATORS);
    }

    #[test]
    fn thread_count_constructors() {
        assert!(NativeCpu::new().threads() >= 1);
        assert_eq!(NativeCpu::with_threads(5).threads(), 5);
        assert_eq!(NativeCpu::default().threads(), NativeCpu::new().threads());
        assert_eq!(
            BackendKind::NativeCpu(0).plan_cut(),
            Some(NativeCpu::new().threads())
        );
        let dbg = format!("{:?}", NativeCpu::with_threads(2));
        assert!(dbg.contains("threads"), "{dbg}");
    }

    #[test]
    #[should_panic(expected = "threads must be non-zero")]
    fn rejects_zero_threads() {
        let _ = NativeCpu::with_threads(0);
    }
}
