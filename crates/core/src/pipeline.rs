//! The staged (pipelined) executor: layer groups as stages, bounded
//! queues between them.
//!
//! [`run_stack_planned`](crate::run_stack_planned) executes a layer
//! stack **layer-at-a-time over the whole batch** on one engine — every
//! layer's wall time adds up, and the single worker pool is the only
//! parallelism. This module adds the second axis from the paper's
//! scalability story (Figs 9–13) and ROADMAP open item 1: carve the
//! stack into **stages** ([`Topology::stage_spans`]), give each stage
//! its own [`NativeCpu`] engine (optionally row-sharded via
//! [`NativeCpu::with_shards`]), and stream the batch through the stages
//! as chunks over bounded SPSC queues — so on a multi-core host,
//! steady-state batch throughput is set by the *slowest stage*, not the
//! sum of the stack.
//!
//! # Chunk granularity
//!
//! Chunk size is a pure scheduling knob (outputs are bit-exact at any
//! granularity, below), but it trades overlap against memory traffic:
//! the lane kernel streams a layer's whole pre-decoded plan once per
//! chunk, re-reading each cache-sized tile for every [`LANE_WIDTH`]
//! lane block *inside* the chunk — so many small chunks re-stream the
//! plan from memory many times, while one big chunk forfeits stage
//! overlap. [`PipelinedStack::run`] therefore adapts to the host: with
//! cores to spare it cuts the batch into `stages × QUEUE_DEPTH` chunks
//! (rounded up to whole lane blocks) so every stage stays busy, and on
//! a lone core — where overlap buys nothing — it hands the whole batch
//! through as one chunk, keeping the plan walk count identical to the
//! single-pool path. A batch that fits one chunk degenerates further:
//! the stage spans run sequentially on the calling thread (each on its
//! own engine), paying no queue or spawn overhead for parallelism that
//! cannot happen. [`PipelinedStack::run_chunked`] pins the granularity
//! explicitly (benchmarks, tests).
//!
//! # Bit-exactness
//!
//! Chunking the batch cannot change any output: the fused kernels keep
//! every item's saturating-[`Accum32`](eie_fixed::Accum32) chain
//! independent (that is what makes batching legal at all), so splitting
//! a batch of 16 into two chunks of [`LANE_WIDTH`] runs the *same* add
//! sequence per item — in fact the lane kernel already processes the
//! batch in [`LANE_WIDTH`]-item blocks internally. Stages execute
//! disjoint layers in stack order with ReLU decided by **global** layer
//! index, and the queues preserve chunk order (SPSC FIFO), so the
//! pipelined stack is bit-exact against [`run_stack_planned`] and the
//! functional golden model for every shard × stage × batch shape — the
//! shard proptests pin exactly this.
//!
//! # Queue sizing policy
//!
//! Each inter-stage queue holds at most [`QUEUE_DEPTH`] (= 2) chunks:
//! one chunk for the consumer to work on and one in flight lets
//! adjacent stages overlap fully (double buffering), while deeper
//! queues would only add memory without throughput — a pipeline's
//! steady state is set by its slowest stage, and queue depth merely
//! absorbs jitter. In-flight activation memory is therefore bounded by
//! `stages × (QUEUE_DEPTH + 1) × chunk_frames × max_rows` values
//! regardless of batch size, the streaming-working-set argument of the
//! I/O-efficiency paper (PAPERS.md).
//!
//! [`run_stack_planned`]: crate::run_stack_planned

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use eie_compress::{LayerPlan, Topology, LANE_WIDTH};
use eie_fixed::Q8p8;

use crate::backend::{NativeCpu, PlannedLayer};
use crate::infer::LayerPhase;

/// Bounded depth (in chunks) of each inter-stage queue: one being
/// consumed plus one in flight — classic double buffering (see the
/// module docs for why deeper buys nothing).
pub const QUEUE_DEPTH: usize = 2;

/// A bounded SPSC queue between two pipeline stages — `eie-serve`'s
/// queue discipline (mutex + two condvars, close-and-drain shutdown)
/// on a fixed chunk capacity:
///
/// * `push` blocks while full, fails (returns `false`) once closed, so
///   a producer upstream of a dead consumer unblocks instead of
///   deadlocking;
/// * `pop` drains remaining chunks after close and only then reports
///   the end of the stream (`None`), so closing loses no work.
struct StageQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> StageQueue<T> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stage queue needs capacity");
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Blocks until there is room, then enqueues; returns `false`
    /// (dropping `item`) if the queue closed in the meantime.
    fn push(&self, item: T) -> bool {
        let mut state = self.state.lock().expect("stage queue poisoned");
        while state.items.len() == self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("stage queue poisoned");
        }
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        true
    }

    /// Blocks until a chunk is available and dequeues it; `None` once
    /// the queue is closed *and* drained.
    fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("stage queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("stage queue poisoned");
        }
    }

    /// Marks the stream finished (idempotent) and wakes both sides.
    fn close(&self) {
        let mut state = self.state.lock().expect("stage queue poisoned");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes a stage's adjacent queues when the stage exits — normally
/// *or by panic*. The close cascades: a dead consumer fails its
/// producer's next `push`, which breaks that producer's loop, whose own
/// guard then closes the next queue upstream — so one panicking stage
/// unwinds the whole pipeline instead of deadlocking it, and the panic
/// re-raises at the caller's join.
struct CloseGuard<'q, T> {
    input: Option<&'q StageQueue<T>>,
    output: Option<&'q StageQueue<T>>,
}

impl<T> Drop for CloseGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(q) = self.input {
            q.close();
        }
        if let Some(q) = self.output {
            q.close();
        }
    }
}

/// One activation chunk in flight: up to [`LANE_WIDTH`] items'
/// activation vectors, in batch order.
type Chunk = Vec<Vec<Q8p8>>;

/// The result of one pipelined stack execution.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Per-item output activations (`[item][global_row]`, batch order),
    /// bit-exact with [`run_stack_planned`](crate::run_stack_planned).
    pub outputs: Vec<Vec<Q8p8>>,
    /// Per-layer busy time (summed over chunks), input to output. Stage
    /// times overlap on a multi-core host, so these sum to more than
    /// [`PipelineRun::wall_s`] once the pipeline actually overlaps.
    pub phases: Vec<LayerPhase>,
    /// End-to-end wall time of the batch, seconds.
    pub wall_s: f64,
}

impl PipelineRun {
    /// Batch throughput, frames/s.
    pub fn frames_per_second(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.outputs.len() as f64 / self.wall_s
    }

    /// Amortized per-frame time, µs.
    pub fn per_frame_us(&self) -> f64 {
        self.wall_s * 1e6 / self.outputs.len().max(1) as f64
    }

    /// End-to-end wall time, µs.
    pub fn wall_time_us(&self) -> f64 {
        self.wall_s * 1e6
    }
}

/// A layer stack staged for pipelined execution: contiguous layer
/// spans, one (possibly row-sharded) [`NativeCpu`] engine per stage,
/// and every layer's plan resolved up front.
///
/// Build once, [`run`](PipelinedStack::run) many — stage engines keep
/// their plan caches and scratch warm across runs, the shape serving
/// workers want. Stage worker threads themselves are scoped per run
/// (they hold borrows of the batch), which costs one spawn per stage
/// per batch — noise next to a multi-layer batch's kernel time.
///
/// ```
/// use eie_core::{BackendKind, CompiledModel, EieConfig, PipelinedStack, Topology};
/// use eie_core::nn::zoo::random_sparse;
/// use eie_core::fixed::Q8p8;
///
/// let w1 = random_sparse(32, 24, 0.2, 1);
/// let w2 = random_sparse(16, 32, 0.2, 2);
/// let model = CompiledModel::compile(EieConfig::default().with_num_pes(4), &[&w1, &w2]);
/// let planned = model.planned_layers();
/// let batch: Vec<Vec<Q8p8>> = (0..5).map(|i| Q8p8::from_f32_slice(&vec![0.25 * i as f32; 24])).collect();
///
/// let stack = PipelinedStack::new(&planned, &Topology::single().with_stages(2), 1);
/// let run = stack.run(&batch);
/// let golden = model.infer(BackendKind::Functional).submit(
///     &(0..5).map(|i| vec![0.25 * i as f32; 24]).collect::<Vec<_>>());
/// for i in 0..5 {
///     assert_eq!(&run.outputs[i], golden.outputs(i), "pipelined must stay bit-exact");
/// }
/// ```
pub struct PipelinedStack<'m> {
    layers: Vec<PlannedLayer<'m>>,
    /// Every layer's resolved plan: the caller's when it has a block
    /// per range the owning stage engine fans out over, otherwise built
    /// (or re-blocked) once into that engine's cache.
    plans: Vec<Arc<LayerPlan>>,
    /// Stage `s` owns global layers `spans[s].0 .. spans[s].1`.
    spans: Vec<(usize, usize)>,
    engines: Vec<NativeCpu>,
}

impl std::fmt::Debug for PipelinedStack<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedStack")
            .field("depth", &self.layers.len())
            .field("spans", &self.spans)
            .field("shards", &self.engines[0].shards())
            .finish()
    }
}

impl<'m> PipelinedStack<'m> {
    /// Stages `layers` according to `topology`. Each stage gets its own
    /// engine with `topology.group_threads()` workers (when set) or
    /// `threads` otherwise (`0` = one worker per core), row-sharded by
    /// `topology.shards()`; stage spans come from
    /// [`Topology::stage_spans`] (`stages = 0` means one stage per
    /// layer).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: &[PlannedLayer<'m>], topology: &Topology, threads: usize) -> Self {
        assert!(!layers.is_empty(), "inference job needs at least one layer");
        let spans = topology.stage_spans(layers.len());
        let stage_threads = if topology.group_threads() > 0 {
            topology.group_threads()
        } else {
            threads
        };
        let engines: Vec<NativeCpu> = spans
            .iter()
            .map(|_| {
                let engine = if stage_threads == 0 {
                    NativeCpu::new()
                } else {
                    NativeCpu::with_threads(stage_threads)
                };
                engine.with_shards(topology.shards())
            })
            .collect();
        let mut plans = Vec::with_capacity(layers.len());
        for (s, &(first, end)) in spans.iter().enumerate() {
            for planned in &layers[first..end] {
                plans.push(engines[s].resolve_plan(*planned));
            }
        }
        Self {
            layers: layers.to_vec(),
            plans,
            spans,
            engines,
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.spans.len()
    }

    /// The global-layer span `(first, end)` of each stage, in order.
    pub fn stage_spans(&self) -> &[(usize, usize)] {
        &self.spans
    }

    /// Number of layers in the staged stack.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Frames per queue handoff on this host (see the module docs):
    /// enough chunks to keep every stage busy when spare cores make
    /// overlap real, the whole batch in one chunk on a lone core —
    /// which gains nothing from overlap but pays the per-chunk plan
    /// re-stream.
    fn policy_chunk_frames(&self, batch: usize) -> usize {
        if crate::backend::default_threads() <= 1 {
            return batch;
        }
        let blocks = batch.div_ceil(LANE_WIDTH);
        let target = (self.spans.len() * QUEUE_DEPTH).clamp(1, blocks);
        blocks.div_ceil(target) * LANE_WIDTH
    }

    /// Runs a quantized batch through the staged stack (ReLU between
    /// layers by global index, none after the last — identical
    /// semantics to [`run_stack_planned`](crate::run_stack_planned)),
    /// picking the chunk granularity for this host (module docs).
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, an item's length differs from the
    /// first layer's input dimension, or a stage worker panicked.
    pub fn run(&self, batch: &[Vec<Q8p8>]) -> PipelineRun {
        assert!(!batch.is_empty(), "batch must be non-empty");
        self.run_chunked(batch, self.policy_chunk_frames(batch.len()))
    }

    /// [`run`](Self::run) with the queue-handoff granularity pinned to
    /// `chunk_frames` items. Outputs are bit-exact at any granularity
    /// (module docs); lane-block multiples of [`LANE_WIDTH`] avoid
    /// padded tail blocks in every chunk but the last.
    ///
    /// A single-stage topology — or a batch that fits one chunk, which
    /// has nothing to overlap — runs inline on the calling thread (no
    /// queues, no spawns); otherwise chunks stream through scoped stage
    /// threads, the first stage executing on the calling thread.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run), plus if `chunk_frames` is zero.
    pub fn run_chunked(&self, batch: &[Vec<Q8p8>], chunk_frames: usize) -> PipelineRun {
        assert!(!batch.is_empty(), "batch must be non-empty");
        assert!(chunk_frames > 0, "chunk granularity must be non-zero");
        let depth = self.layers.len();
        let start = Instant::now();
        // One stage, or one chunk: there is nothing to overlap, so run
        // the stage spans sequentially on the calling thread — each
        // span still executes on its own engine, but no queue or spawn
        // overhead is paid for parallelism that cannot happen.
        if self.spans.len() == 1 || batch.len() <= chunk_frames {
            let mut current = batch.to_vec();
            let mut phases = Vec::with_capacity(depth);
            for (s, &(first, end)) in self.spans.iter().enumerate() {
                let engine = &self.engines[s];
                for (i, plan) in self.plans[first..end].iter().enumerate() {
                    let t = Instant::now();
                    current = engine.run_chunk_planned(plan, &current, first + i + 1 < depth);
                    phases.push(LayerPhase {
                        latency_s: t.elapsed().as_secs_f64(),
                        stats: None,
                    });
                }
            }
            return PipelineRun {
                outputs: current,
                phases,
                wall_s: start.elapsed().as_secs_f64(),
            };
        }

        let queues: Vec<StageQueue<Chunk>> = (1..self.spans.len())
            .map(|_| StageQueue::new(QUEUE_DEPTH))
            .collect();
        let mut stage_times: Vec<Vec<f64>> = Vec::with_capacity(self.spans.len());
        let mut outputs: Vec<Vec<Q8p8>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.spans.len() - 1);
            for (s, &(first, end)) in self.spans.iter().enumerate().skip(1) {
                let input = &queues[s - 1];
                let output = queues.get(s);
                let engine = &self.engines[s];
                let plans = &self.plans[first..end];
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("eie-stage-{s}"))
                        .spawn_scoped(scope, move || {
                            let _guard = CloseGuard {
                                input: Some(input),
                                output,
                            };
                            let mut times = vec![0.0f64; end - first];
                            let mut collected: Vec<Vec<Q8p8>> = Vec::new();
                            while let Some(mut chunk) = input.pop() {
                                for (i, plan) in plans.iter().enumerate() {
                                    let t = Instant::now();
                                    chunk = engine.run_chunk_planned(
                                        plan,
                                        &chunk,
                                        first + i + 1 < depth,
                                    );
                                    times[i] += t.elapsed().as_secs_f64();
                                }
                                match output {
                                    Some(queue) => {
                                        if !queue.push(chunk) {
                                            break;
                                        }
                                    }
                                    None => collected.extend(chunk),
                                }
                            }
                            (times, collected)
                        })
                        .expect("spawn pipeline stage"),
                );
            }
            // The first stage runs here, feeding the pipeline.
            let (first, end) = self.spans[0];
            let engine = &self.engines[0];
            let mut times = vec![0.0f64; end - first];
            {
                let _guard = CloseGuard {
                    input: None,
                    output: Some(&queues[0]),
                };
                for items in batch.chunks(chunk_frames) {
                    let mut chunk = items.to_vec();
                    for (i, plan) in self.plans[first..end].iter().enumerate() {
                        let t = Instant::now();
                        chunk = engine.run_chunk_planned(plan, &chunk, first + i + 1 < depth);
                        times[i] += t.elapsed().as_secs_f64();
                    }
                    if !queues[0].push(chunk) {
                        break;
                    }
                }
            }
            stage_times.push(times);
            for handle in handles {
                let (times, collected) = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                stage_times.push(times);
                if !collected.is_empty() {
                    outputs = collected;
                }
            }
        });
        assert_eq!(
            outputs.len(),
            batch.len(),
            "pipeline drained early (a stage died before finishing the batch)"
        );
        let phases = stage_times
            .into_iter()
            .flatten()
            .map(|latency_s| LayerPhase {
                latency_s,
                stats: None,
            })
            .collect();
        PipelineRun {
            outputs,
            phases,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// Runs a quantized batch through a planned layer stack under a
/// topology — the pipelined sibling of
/// [`run_stack_planned`](crate::run_stack_planned), and the entry point
/// the serving workers and the scaling sweep share. `threads` is the
/// per-stage worker count used when the topology doesn't pin one
/// (`0` = one worker per core).
///
/// Callers that run the same stack repeatedly should build a
/// [`PipelinedStack`] once and call [`PipelinedStack::run`] to keep the
/// stage engines warm.
///
/// # Panics
///
/// Panics if `layers` or `batch` is empty, or dimensions mismatch.
pub fn run_stack_pipelined(
    layers: &[PlannedLayer<'_>],
    batch: &[Vec<Q8p8>],
    topology: &Topology,
    threads: usize,
) -> PipelineRun {
    PipelinedStack::new(layers, topology, threads).run(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, CompiledModel};
    use crate::infer::run_stack_planned;
    use crate::EieConfig;
    use eie_nn::zoo::random_sparse;
    use std::sync::Arc;

    fn stack_model(depth: usize) -> CompiledModel {
        // 24 → 32 → 32 → … → 12, densities high enough to exercise
        // every PE slice.
        let mut layers = Vec::new();
        layers.push(random_sparse(32, 24, 0.3, 21));
        for i in 1..depth.saturating_sub(1) {
            layers.push(random_sparse(32, 32, 0.3, 21 + i as u64));
        }
        if depth > 1 {
            layers.push(random_sparse(12, 32, 0.3, 20 + depth as u64));
        }
        let refs: Vec<&eie_nn::CsrMatrix> = layers.iter().collect();
        CompiledModel::compile(EieConfig::default().with_num_pes(4), &refs)
    }

    fn quantized_batch(n: usize, cols: usize) -> Vec<Vec<Q8p8>> {
        (0..n as u64)
            .map(|i| {
                Q8p8::from_f32_slice(&eie_nn::zoo::sample_activations(cols, 0.5, true, 90 + i))
            })
            .collect()
    }

    #[test]
    fn queue_blocks_bounds_and_drains_on_close() {
        let q = StageQueue::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        q.close();
        // Closed: pushes fail, the backlog still drains in order.
        assert!(!q.push(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_close_unblocks_a_full_producer() {
        let q = Arc::new(StageQueue::new(1));
        assert!(q.push(0));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1))
        };
        // The producer is (about to be) parked on a full queue; closing
        // must fail its push rather than strand it.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert!(!producer.join().unwrap(), "push must fail after close");
    }

    #[test]
    fn pipelined_outputs_are_bit_exact_for_every_stage_and_shard_shape() {
        let model = stack_model(4);
        let planned = model.planned_layers();
        let engine = NativeCpu::with_threads(1);
        for batch_len in [1, 5, 8, 9, 17] {
            let batch = quantized_batch(batch_len, 24);
            let baseline = run_stack_planned(&engine, &planned, &batch);
            for stages in [0, 1, 2, 3, 4, 9] {
                for shards in [1, 2, 3] {
                    let topology = Topology::single().with_stages(stages).with_shards(shards);
                    let run = run_stack_pipelined(&planned, &batch, &topology, 1);
                    assert_eq!(run.outputs.len(), batch_len);
                    assert_eq!(run.phases.len(), 4);
                    for (i, item) in baseline.iter().enumerate() {
                        assert_eq!(
                            run.outputs[i], item.outputs,
                            "diverged at {stages} stages × {shards} shards, \
                             batch {batch_len}, item {i}"
                        );
                    }
                    // Chunk granularity is a scheduling knob only: force
                    // single-item, lane-remainder and lane-width handoffs
                    // through the queues (whatever this host's policy is).
                    if stages == 4 {
                        let stack = PipelinedStack::new(&planned, &topology, 1);
                        for chunk_frames in [1, 3, LANE_WIDTH] {
                            let chunked = stack.run_chunked(&batch, chunk_frames);
                            for (i, item) in baseline.iter().enumerate() {
                                assert_eq!(
                                    chunked.outputs[i], item.outputs,
                                    "diverged at chunk {chunk_frames}, {shards} shards, \
                                     batch {batch_len}, item {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pipelined_matches_the_functional_golden_end_to_end() {
        let model = stack_model(3);
        let inputs: Vec<Vec<f32>> = (0..6)
            .map(|i| eie_nn::zoo::sample_activations(24, 0.5, true, 300 + i))
            .collect();
        let golden = model.infer(BackendKind::Functional).submit(&inputs);
        let planned = model.planned_layers();
        let batch: Vec<Vec<Q8p8>> = inputs.iter().map(|a| Q8p8::from_f32_slice(a)).collect();
        let topology = Topology::single().with_stages(3).with_shards(2);
        let run = run_stack_pipelined(&planned, &batch, &topology, 1);
        for i in 0..inputs.len() {
            assert_eq!(&run.outputs[i], golden.outputs(i));
        }
        assert!(run.wall_s > 0.0);
        assert!(run.frames_per_second() > 0.0);
    }

    #[test]
    fn stack_reuse_keeps_engines_warm_and_spans_resolved() {
        let model = stack_model(3);
        let planned = model.planned_layers();
        let stack = PipelinedStack::new(&planned, &Topology::single().with_stages(2), 1);
        assert_eq!(stack.stages(), 2);
        assert_eq!(stack.depth(), 3);
        assert_eq!(stack.stage_spans(), &[(0, 2), (2, 3)]);
        let batch = quantized_batch(4, 24);
        let first = stack.run(&batch);
        let second = stack.run(&batch);
        assert_eq!(first.outputs, second.outputs);
        // Plans came from the model's cache: no stage engine rebuilt.
        for engine in &stack.engines {
            assert_eq!(engine.plan_builds(), 0);
        }
    }

    #[test]
    fn unplanned_layers_build_into_the_owning_stage_engine() {
        let model = stack_model(2);
        let unplanned: Vec<PlannedLayer<'_>> =
            model.layers().iter().map(PlannedLayer::unplanned).collect();
        let stack = PipelinedStack::new(&unplanned, &Topology::single().with_stages(2), 1);
        let total_builds: u64 = stack.engines.iter().map(|e| e.plan_builds()).sum();
        assert_eq!(total_builds, 2, "one plan per layer, built at staging");
        let batch = quantized_batch(3, 24);
        let planned = model.planned_layers();
        let baseline = run_stack_planned(&NativeCpu::with_threads(1), &planned, &batch);
        let run = stack.run(&batch);
        for (i, item) in baseline.iter().enumerate() {
            assert_eq!(run.outputs[i], item.outputs);
        }
    }

    #[test]
    fn a_panicking_stage_surfaces_without_deadlock() {
        let model = stack_model(3);
        let planned = model.planned_layers();
        let stack = PipelinedStack::new(&planned, &Topology::single().with_stages(3), 1);
        // A mid-pipeline dimension mismatch panics inside stage 1; the
        // close cascade must unwind stages 0 and 2 and re-raise here.
        let bad = vec![vec![Q8p8::from_f32(0.5); 24]; 4];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Feed a batch whose items are the wrong length for layer 0,
            // pinned to single-item chunks so the bad item panics with
            // earlier chunks already in flight downstream.
            let mut wrong = bad.clone();
            wrong[2] = vec![Q8p8::from_f32(0.5); 7];
            stack.run_chunked(&wrong, 1)
        }));
        assert!(result.is_err(), "dimension mismatch must panic");
        // The stack (and its queues) must remain usable afterwards.
        let run = stack.run(&bad);
        assert_eq!(run.outputs.len(), 4);
    }

    #[test]
    #[should_panic(expected = "batch must be non-empty")]
    fn rejects_empty_batch() {
        let model = stack_model(2);
        let planned = model.planned_layers();
        let _ = run_stack_pipelined(&planned, &[], &Topology::single(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_empty_stack() {
        let _ = PipelinedStack::new(&[], &Topology::single(), 1);
    }
}
