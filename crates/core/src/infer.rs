//! The single inference surface: build an [`InferenceJob`], submit
//! inputs, read a [`JobResult`].
//!
//! EIE's evaluation runs one compressed artifact on three engines; this
//! module gives all of them one request/response lifecycle:
//!
//! ```
//! use eie_core::{BackendKind, CompiledModel, EieConfig};
//! use eie_core::nn::zoo::random_sparse;
//!
//! let w1 = random_sparse(32, 24, 0.2, 1);
//! let w2 = random_sparse(16, 32, 0.2, 2);
//! let model = CompiledModel::compile(EieConfig::default().with_num_pes(4), &[&w1, &w2]);
//!
//! // One surface for every execution mode: pick a backend, scope the
//! // job, submit a batch.
//! let batch = vec![vec![0.5f32; 24]; 3];
//! let job = model.infer(BackendKind::CycleAccurate).energy(true).submit(&batch);
//! assert_eq!(job.batch_size(), 3);
//! assert!(job.energy().is_some());
//!
//! // A sub-stack of the model (here: just the first layer, raw M×V).
//! let first = model.infer(BackendKind::Functional).layers(0..1).submit_one(&vec![0.5; 24]);
//! assert_eq!(first.outputs(0).len(), 32);
//! ```
//!
//! The job executes the selected layers **layer-at-a-time over the whole
//! batch** (ReLU between selected layers, none after the last), so every
//! backend's batched fast path stays in play while outputs remain
//! bit-identical to a one-at-a-time functional run — the invariant the
//! serving stack ([`eie-serve`]) builds on.
//!
//! [`eie-serve`]: https://github.com/eie-rs/eie

use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use eie_energy::{EnergyReport, LayerActivity};
use eie_fixed::Q8p8;
use eie_sim::SimStats;

use crate::backend::{Backend, BackendKind, BackendRun, CompiledModel, PlannedLayer};
use crate::EieConfig;

impl CompiledModel {
    /// Starts an inference job on this model for the given backend — the
    /// single execution entry point for layers, networks and batches on
    /// every backend.
    ///
    /// The job defaults to the whole layer stack, the model's compiled
    /// configuration, and energy pricing on (a no-op on backends without
    /// activity statistics); see the [`InferenceJob`] builders.
    pub fn infer(&self, backend: BackendKind) -> InferenceJob<'_> {
        InferenceJob {
            model: self,
            backend,
            config: *self.config(),
            first: 0,
            end: self.num_layers(),
            price_energy: true,
            engine: OnceLock::new(),
        }
    }
}

/// A configured-but-not-yet-submitted inference request against a
/// [`CompiledModel`]: which backend executes, which contiguous slice of
/// the layer stack runs, under which execution configuration, and
/// whether activity statistics are priced into an energy report.
///
/// Built by [`CompiledModel::infer`]; consumed by
/// [`InferenceJob::submit`] / [`InferenceJob::submit_one`].
#[derive(Debug, Clone)]
pub struct InferenceJob<'m> {
    model: &'m CompiledModel,
    backend: BackendKind,
    config: EieConfig,
    first: usize,
    end: usize,
    price_energy: bool,
    /// The instantiated backend, built on the first submit and reused
    /// across submits of the same job — a looping caller keeps the
    /// `NativeCpu` engine (worker pool, warm scratch) alive instead of
    /// re-spawning it per call, the same warm shape the serving workers
    /// have; the plans it walks are the model's. Cleared by
    /// [`InferenceJob::config`] (backends capture the configuration at
    /// instantiation).
    engine: OnceLock<Arc<dyn Backend>>,
}

impl<'m> InferenceJob<'m> {
    /// Restricts the job to a contiguous sub-range of the model's layer
    /// stack (default: all layers). ReLU applies between *selected*
    /// layers and never after the last, so a single-layer job is a raw
    /// M×V.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn layers<R: RangeBounds<usize>>(mut self, range: R) -> Self {
        let first = match range.start_bound() {
            Bound::Unbounded => 0,
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
        };
        let end = match range.end_bound() {
            Bound::Unbounded => self.model.num_layers(),
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
        };
        assert!(
            first < end && end <= self.model.num_layers(),
            "layer range {first}..{end} invalid for a {}-layer model",
            self.model.num_layers()
        );
        self.first = first;
        self.end = end;
        self
    }

    /// Restricts the job to one layer (raw M×V, no ReLU) — shorthand for
    /// `layers(i..=i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn layer(self, i: usize) -> Self {
        self.layers(i..=i)
    }

    /// Overrides the execution configuration (clock, FIFO depth, SRAM
    /// width, ablation switches) without recompiling the artifact — the
    /// design-space-sweep entry point. The PE count must match the
    /// compiled layers; [`InferenceJob::submit`] asserts it.
    pub fn config(mut self, config: EieConfig) -> Self {
        self.config = config;
        // Backends capture the configuration at instantiation; a
        // cached engine built under the old one must not survive.
        self.engine = OnceLock::new();
        self
    }

    /// Enables or disables energy pricing of the run's activity
    /// statistics (default: on). Only the cycle-accurate backend
    /// produces statistics; on other backends this is a no-op and
    /// [`JobResult::energy`] is `None` either way.
    pub fn energy(mut self, price: bool) -> Self {
        self.price_energy = price;
        self
    }

    /// The backend this job will execute on.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Submits a batch of `f32` input vectors and runs the job to
    /// completion, returning the unified [`JobResult`].
    ///
    /// A plan-walking backend runs on the model's plans; any slot still
    /// empty is filled here, cut for the engine's threads
    /// ([`BackendKind::plan_cut`]). The first build decides the cut.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, an item's length differs from the
    /// first selected layer's input dimension, or the execution
    /// configuration's PE count mismatches the compiled layers.
    pub fn submit(&self, inputs: &[Vec<f32>]) -> JobResult {
        assert_eq!(
            self.model.config().num_pes,
            self.config.num_pes,
            "layer compressed for a different PE count"
        );
        let backend = self
            .engine
            .get_or_init(|| Arc::from(self.backend.instantiate(&self.config)));
        let layers = self.assemble_layers();
        execute_stack(
            &self.config,
            self.backend,
            backend.as_ref(),
            &layers,
            inputs,
            self.price_energy,
        )
    }

    /// The job's planned-layer list, in the form the backend walks
    /// ([`BackendKind::plan_cut`]): plans are fetched (building lazily
    /// into the model's slots) only for a backend that walks them.
    fn assemble_layers(&self) -> Vec<PlannedLayer<'_>> {
        let cut = self.backend.plan_cut();
        (self.first..self.end)
            .map(|i| match cut {
                Some(threads) => PlannedLayer::Plan(self.model.plan_cut(i, threads)),
                None => PlannedLayer::Encoded(self.model.layer(i)),
            })
            .collect()
    }

    /// Submits a single input vector — shorthand for a batch of one.
    ///
    /// # Panics
    ///
    /// Same conditions as [`InferenceJob::submit`].
    pub fn submit_one(&self, input: &[f32]) -> JobResult {
        self.submit(std::slice::from_ref(&input.to_vec()))
    }
}

/// Per-layer aggregate of one job: the summed item latencies and the
/// merged activity statistics (cycle-accurate backend only) of one layer
/// of the selected stack, over the whole batch.
#[derive(Debug, Clone)]
pub struct LayerPhase {
    /// Summed per-item time spent in this layer, seconds (modelled time
    /// on the cycle backend, measured host time otherwise).
    pub latency_s: f64,
    /// Activity statistics merged over the batch (cycle backend only).
    pub stats: Option<SimStats>,
}

impl LayerPhase {
    /// Summed per-item time spent in this layer, µs.
    pub fn latency_us(&self) -> f64 {
        self.latency_s * 1e6
    }
}

/// The unified result of one [`InferenceJob`]: per-item outputs and
/// latencies as a distribution, aggregate frames/s over the whole batch,
/// a per-layer breakdown, and — on the cycle-accurate backend — merged
/// activity statistics priced into an energy report.
///
/// EIE's headline claim is latency *without* batching (§VI-B compares at
/// batch 1, Table IV adds the CPU/GPU batch-64 columns the accelerator
/// doesn't need); a job result makes that story measurable.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Which backend executed the job.
    backend: BackendKind,
    /// The executing backend's report name ([`Backend::name`]).
    name: &'static str,
    /// Clock the job was timed at, Hz (for cycle → wall conversions).
    clock_hz: f64,
    /// Per-item runs, in batch order.
    items: Vec<BackendRun>,
    /// Whole-batch wall time, seconds: measured end to end for host
    /// backends (so it reflects real parallel speed-up), the sum of
    /// modelled item times for the cycle-accurate backend (the hardware
    /// runs items back to back).
    wall_s: f64,
    /// Activity-priced energy over the whole batch (cycle-accurate
    /// backend, with pricing enabled).
    energy: Option<EnergyReport>,
    /// Per-layer breakdown of the selected stack, input to output.
    phases: Vec<LayerPhase>,
}

impl JobResult {
    /// Which backend executed the job.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Number of items in the submitted batch.
    pub fn batch_size(&self) -> usize {
        self.items.len()
    }

    /// Output activations of item `i`, Q8.8.
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch_size()`.
    pub fn outputs(&self, i: usize) -> &[Q8p8] {
        &self.items[i].outputs
    }

    /// Output activations of item `i`, converted to `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch_size()`.
    pub fn outputs_f32(&self, i: usize) -> Vec<f32> {
        self.outputs(i).iter().map(|v| v.to_f32()).collect()
    }

    /// Item `i`'s end-to-end latency, µs (modelled hardware time on the
    /// cycle backend, measured host time otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch_size()`.
    pub fn latency_us(&self, i: usize) -> f64 {
        self.items[i].latency_us()
    }

    /// Item `i`'s amortized per-item cost, µs: fused-batch wall time
    /// divided by the batch size (equal to [`JobResult::latency_us`]
    /// for unfused execution). At batch > 1 the fused native kernel
    /// stamps every item with the batch's wall time, so *latency*
    /// percentiles are degenerate — this is the throughput-style
    /// per-item number.
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch_size()`.
    pub fn amortized_latency_us(&self, i: usize) -> f64 {
        self.items[i].amortized_us()
    }

    /// Item `i`'s cycle/activity statistics (cycle backend only), merged
    /// over the selected layers.
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch_size()`.
    pub fn stats(&self, i: usize) -> Option<&SimStats> {
        self.items[i].stats.as_ref()
    }

    /// Activity statistics merged over the whole batch (cycle backend
    /// only).
    pub fn merged_stats(&self) -> Option<SimStats> {
        let mut total: Option<SimStats> = None;
        for item in &self.items {
            match (&mut total, item.stats.as_ref()) {
                (_, None) => return None,
                (None, Some(s)) => total = Some(s.clone()),
                (Some(t), Some(s)) => t.merge(s),
            }
        }
        total
    }

    /// The per-layer breakdown of the selected stack (one entry per
    /// executed layer, input to output).
    pub fn layer_phases(&self) -> &[LayerPhase] {
        &self.phases
    }

    /// Activity statistics of executed layer `li`, merged over the batch
    /// (cycle backend only).
    ///
    /// # Panics
    ///
    /// Panics if `li` is not an executed-layer index.
    pub fn layer_stats(&self, li: usize) -> Option<&SimStats> {
        self.phases[li].stats.as_ref()
    }

    /// Whole-job wall time, µs: the sum of modelled item times on the
    /// cycle backend (the hardware runs items back to back), measured
    /// end-to-end host time otherwise.
    pub fn time_us(&self) -> f64 {
        self.wall_s * 1e6
    }

    /// The theoretical (perfectly balanced, stall-free) time for the
    /// whole job, µs — Table IV's "EIE Theoretical Time" row (cycle
    /// backend only).
    pub fn theoretical_time_us(&self) -> Option<f64> {
        self.merged_stats()
            .map(|s| s.theoretical_cycles() as f64 / self.clock_hz * 1e6)
    }

    /// Aggregate inference throughput over the batch, frames/s.
    pub fn frames_per_second(&self) -> f64 {
        self.batch_size() as f64 / self.wall_s
    }

    /// Mean per-item latency, µs.
    pub fn mean_latency_us(&self) -> f64 {
        self.items.iter().map(BackendRun::latency_us).sum::<f64>() / self.batch_size() as f64
    }

    /// Amortized per-frame time, µs: batch wall time over batch size —
    /// the paper's Table IV convention, and the number to compare with
    /// [`BaselineBatchRun::per_frame_us`](eie_baselines::BaselineBatchRun).
    /// (Per-*item* latency can be larger: a fused host batch completes
    /// as a unit, so each item's latency is the whole batch's wall.)
    pub fn per_frame_us(&self) -> f64 {
        self.time_us() / self.batch_size() as f64
    }

    /// The `p`-th percentile of per-item latency, µs (nearest-rank).
    fn percentile_latency_us(&self, p: f64) -> f64 {
        let latencies: Vec<f64> = self.items.iter().map(BackendRun::latency_us).collect();
        percentile(&latencies, p)
    }

    /// Median per-item latency, µs.
    pub fn p50(&self) -> f64 {
        self.percentile_latency_us(50.0)
    }

    /// 95th-percentile per-item latency, µs.
    pub fn p95(&self) -> f64 {
        self.percentile_latency_us(95.0)
    }

    /// 99th-percentile per-item latency, µs — the tail-latency number
    /// serving SLOs are written against.
    pub fn p99(&self) -> f64 {
        self.percentile_latency_us(99.0)
    }

    /// Sustained GOP/s on the compressed workload (cycle backend only).
    pub fn gops(&self) -> Option<f64> {
        self.merged_stats().map(|s| s.gops_at(self.clock_hz))
    }

    /// Activity-priced energy over the whole batch (cycle backend, with
    /// pricing enabled).
    pub fn energy(&self) -> Option<&EnergyReport> {
        self.energy.as_ref()
    }

    /// Energy per frame, µJ (cycle backend, with pricing enabled).
    pub fn energy_per_frame_uj(&self) -> Option<f64> {
        self.energy()
            .map(|e| e.total_uj() / self.batch_size() as f64)
    }

    /// Average power over the run, W (cycle backend, with pricing
    /// enabled).
    pub fn average_power_w(&self) -> Option<f64> {
        self.energy().map(EnergyReport::average_power_w)
    }
}

/// Nearest-rank percentile of an unsorted sample; `0.0` for an empty
/// one — the shared latency-distribution helper behind
/// [`JobResult::p50`] and the serving metrics.
///
/// # Panics
///
/// Panics if `p` is outside `0.0..=100.0` or a sample is NaN.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1)]
}

impl fmt::Display for JobResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} batch {}: {:.2} µs/frame, {:.0} frames/s (item p95 {:.2} µs)",
            self.name,
            self.batch_size(),
            self.per_frame_us(),
            self.frames_per_second(),
            self.p95(),
        )?;
        if let Some(uj) = self.energy_per_frame_uj() {
            write!(f, ", {uj:.3} µJ/frame")?;
        }
        Ok(())
    }
}

/// Runs a quantized batch through a stack of planned layers on an
/// already-instantiated backend — the serving loop's entry point
/// (ReLU between layers, none after the last).
///
/// This is the one execution loop behind [`InferenceJob::submit`] and
/// the serving workers, so micro-batch coalescing can never change
/// outputs: every path quantizes, chains and accumulates identically,
/// and plans change *where the weights are read from*, never the
/// accumulation order.
///
/// # Panics
///
/// Panics if `layers` or `batch` is empty, or dimensions mismatch.
pub fn run_stack_planned(
    backend: &dyn Backend,
    layers: &[PlannedLayer<'_>],
    batch: &[Vec<Q8p8>],
) -> Vec<BackendRun> {
    chain_stack(backend, layers, batch).0
}

/// The one chaining loop: run each selected layer over the whole batch,
/// accumulating per-item latency/statistics and the per-layer phases.
fn chain_stack(
    backend: &dyn Backend,
    layers: &[PlannedLayer<'_>],
    batch: &[Vec<Q8p8>],
) -> (Vec<BackendRun>, Vec<LayerPhase>) {
    assert!(!layers.is_empty(), "inference job needs at least one layer");
    assert!(!batch.is_empty(), "batch must be non-empty");
    let n = batch.len();
    let mut latency_s = vec![0.0f64; n];
    let mut amortized_s = vec![0.0f64; n];
    let mut stats: Vec<Option<SimStats>> = vec![None; n];
    // Layer 0 reads the caller's batch in place; each later layer
    // reads the owned outputs of the one before.
    let mut current: Vec<Vec<Q8p8>> = Vec::new();
    let mut phases: Vec<LayerPhase> = Vec::with_capacity(layers.len());
    for (li, layer) in layers.iter().enumerate() {
        let relu = li + 1 < layers.len();
        let input = if li == 0 { batch } else { &current };
        let runs = backend.run_layer_batch_planned(*layer, input, relu);
        let mut phase = LayerPhase {
            latency_s: 0.0,
            stats: None,
        };
        let mut next: Vec<Vec<Q8p8>> = Vec::with_capacity(n);
        for (i, run) in runs.into_iter().enumerate() {
            latency_s[i] += run.latency_s;
            amortized_s[i] += run.amortized_s;
            phase.latency_s += run.latency_s;
            match (&mut phase.stats, run.stats.as_ref()) {
                (None, Some(s)) => phase.stats = Some(s.clone()),
                (Some(t), Some(s)) => t.merge(s),
                (_, None) => {}
            }
            match (&mut stats[i], run.stats) {
                (slot @ None, s) => *slot = s,
                (Some(total), Some(s)) => total.merge(&s),
                (Some(_), None) => {}
            }
            next.push(run.outputs);
        }
        current = next;
        phases.push(phase);
    }
    let items = current
        .into_iter()
        .zip(latency_s.into_iter().zip(amortized_s))
        .zip(stats)
        .map(|((outputs, (latency_s, amortized_s)), stats)| BackendRun {
            outputs,
            latency_s,
            amortized_s,
            stats,
        })
        .collect();
    (items, phases)
}

/// Converts simulator statistics into the energy model's activity counts.
fn activity_from_stats(stats: &SimStats) -> LayerActivity {
    LayerActivity {
        cycles: stats.total_cycles,
        num_pes: stats.num_pes(),
        spmat_row_reads: stats.spmat_row_reads(),
        ptr_bank_reads: stats.ptr_bank_reads(),
        macs: stats.total_macs(),
        dest_reads: stats.pe.iter().map(|p| p.dest_reads).sum(),
        dest_writes: stats.pe.iter().map(|p| p.dest_writes).sum(),
        queue_pushes: stats.pe.iter().map(|p| p.queue_pushes).sum(),
        queue_pops: stats.pe.iter().map(|p| p.queue_pops).sum(),
        output_writes: stats.pe.iter().map(|p| p.output_writes).sum(),
        input_reads: stats.broadcasts,
    }
}

/// The shared execution core: quantize → chain the stack on an
/// already-instantiated backend → aggregate per-item, per-layer and
/// whole-batch views (`kind` names the backend in the result).
///
/// [`InferenceJob::submit`] funnels here with its cached engine.
fn execute_stack(
    config: &EieConfig,
    kind: BackendKind,
    backend: &dyn Backend,
    layers: &[PlannedLayer<'_>],
    inputs: &[Vec<f32>],
    price_energy: bool,
) -> JobResult {
    assert!(!layers.is_empty(), "inference job needs at least one layer");
    assert!(!inputs.is_empty(), "batch must be non-empty");
    let quantized: Vec<Vec<Q8p8>> = inputs
        .iter()
        .map(|acts| Q8p8::from_f32_slice(acts))
        .collect();

    let start = Instant::now();
    let (items, phases) = chain_stack(backend, layers, &quantized);
    let measured_wall_s = start.elapsed().as_secs_f64();

    let wall_s = if kind.is_modeled() {
        items.iter().map(|r| r.latency_s).sum()
    } else {
        measured_wall_s
    };
    let energy = if price_energy && items.iter().all(|r| r.stats.is_some()) {
        let mut total = SimStats::default();
        for run in &items {
            total.merge(run.stats.as_ref().expect("checked above"));
        }
        Some(EnergyReport::price(
            &activity_from_stats(&total),
            &config.pe_model(),
        ))
    } else {
        None
    };
    JobResult {
        backend: kind,
        name: backend.name(),
        clock_hz: config.clock_hz,
        items,
        wall_s,
        energy,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eie_nn::zoo::random_sparse;

    fn two_layer_model() -> CompiledModel {
        let w1 = random_sparse(32, 24, 0.3, 11);
        let w2 = random_sparse(12, 32, 0.3, 12);
        CompiledModel::compile(EieConfig::default().with_num_pes(4), &[&w1, &w2])
    }

    fn batch(n: usize) -> Vec<Vec<f32>> {
        (0..n as u64)
            .map(|i| eie_nn::zoo::sample_activations(24, 0.5, false, 50 + i))
            .collect()
    }

    #[test]
    fn job_runs_the_whole_stack_by_default() {
        let model = two_layer_model();
        let job = model.infer(BackendKind::Functional).submit(&batch(3));
        assert_eq!(job.batch_size(), 3);
        assert_eq!(job.outputs(0).len(), 12);
        assert_eq!(job.layer_phases().len(), 2);
        assert!(job.energy().is_none(), "functional backend has no energy");
        assert!(job.merged_stats().is_none());
        assert!(job.time_us() >= 0.0);
    }

    #[test]
    fn cycle_jobs_price_energy_and_expose_stats() {
        let model = two_layer_model();
        let job = model.infer(BackendKind::CycleAccurate).submit(&batch(2));
        let energy = job.energy().expect("cycle backend prices energy");
        assert!(energy.total_uj() > 0.0);
        assert!(job.average_power_w().unwrap() > 0.0);
        assert!(job.gops().unwrap() > 0.0);
        assert!(job.theoretical_time_us().unwrap() <= job.time_us());
        let merged = job.merged_stats().unwrap();
        let per_item: u64 = (0..2).map(|i| job.stats(i).unwrap().total_cycles).sum();
        assert_eq!(merged.total_cycles, per_item);
        let per_layer: u64 = (0..2)
            .map(|li| job.layer_stats(li).unwrap().total_cycles)
            .sum();
        assert_eq!(merged.total_cycles, per_layer);
        // Disabled pricing drops the report but not the statistics.
        let unpriced = model
            .infer(BackendKind::CycleAccurate)
            .energy(false)
            .submit(&batch(2));
        assert!(unpriced.energy().is_none());
        assert!(unpriced.stats(0).is_some());
    }

    #[test]
    fn layer_scoping_matches_manual_chaining() {
        let model = two_layer_model();
        let inputs = batch(1);
        // Layer 0 raw, host-side ReLU + quantize, layer 1 raw == whole
        // stack (the job applies ReLU between layers on-device).
        let l0 = model
            .infer(BackendKind::Functional)
            .layer(0)
            .submit(&inputs);
        let mid: Vec<f32> = l0.outputs_f32(0).iter().map(|&v| v.max(0.0)).collect();
        let l1 = model
            .infer(BackendKind::Functional)
            .layers(1..)
            .submit_one(&mid);
        let whole = model.infer(BackendKind::Functional).submit(&inputs);
        assert_eq!(l1.outputs(0), whole.outputs(0));
        assert_eq!(whole.layer_phases().len(), 2);
        assert_eq!(l0.layer_phases().len(), 1);
    }

    #[test]
    fn jobs_reuse_their_engine_and_plans_across_submits() {
        let model = two_layer_model();
        let job = model.infer(BackendKind::NativeCpu(2));
        assert_eq!(model.plans_built(), 0);
        let first = job.submit(&batch(2));
        // The job filled both of the model's plan slots, cut for its
        // engine's two threads…
        assert_eq!(model.plans_built(), 2);
        for i in 0..2 {
            let plan = model.plan(i);
            assert!(plan.blocks().len() >= 2.min(plan.rows()), "layer {i}");
        }
        let second = job.submit(&batch(2));
        assert_eq!(first.outputs(0), second.outputs(0));
        // …and resubmitting reuses engine and plans alike.
        assert_eq!(model.plans_built(), 2);
        // Non-plan backends never trigger plan builds.
        let fresh = two_layer_model();
        let _ = fresh.infer(BackendKind::Functional).submit(&batch(1));
        let _ = fresh.infer(BackendKind::CycleAccurate).submit(&batch(1));
        assert_eq!(fresh.plans_built(), 0);
    }

    #[test]
    fn config_override_retimes_without_recompiling() {
        let model = two_layer_model();
        let inputs = batch(1);
        let slow = model.infer(BackendKind::CycleAccurate).submit(&inputs);
        let fast = model
            .infer(BackendKind::CycleAccurate)
            .config(model.config().with_clock_hz(1.6e9))
            .submit(&inputs);
        assert_eq!(slow.outputs(0), fast.outputs(0));
        assert!((slow.time_us() / fast.time_us() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn backends_agree_through_the_job_surface() {
        let model = two_layer_model();
        let inputs = batch(4);
        let golden = model.infer(BackendKind::Functional).submit(&inputs);
        for kind in [BackendKind::CycleAccurate, BackendKind::NativeCpu(2)] {
            let job = model.infer(kind).submit(&inputs);
            for i in 0..inputs.len() {
                assert_eq!(job.outputs(i), golden.outputs(i), "{kind} diverged");
            }
        }
    }

    #[test]
    fn activity_conversion_sums_pe_counters() {
        let model = two_layer_model();
        let job = model
            .infer(BackendKind::CycleAccurate)
            .layer(0)
            .submit(&batch(1));
        let stats = job.stats(0).expect("cycle backend reports stats");
        let act = activity_from_stats(stats);
        assert_eq!(act.num_pes, 4);
        assert_eq!(act.macs, stats.total_macs());
        assert!(act.spmat_row_reads > 0);
        assert!(act.dest_writes >= act.macs); // every MAC writes
    }

    #[test]
    fn cycle_batch_matches_per_item_jobs_and_prices_energy() {
        let model = two_layer_model();
        let inputs = batch(3);
        let job = model.infer(BackendKind::CycleAccurate).submit(&inputs);
        let (mut wall_us, mut uj) = (0.0, 0.0);
        for (i, item) in inputs.iter().enumerate() {
            let single = model.infer(BackendKind::CycleAccurate).submit_one(item);
            assert_eq!(job.outputs(i), single.outputs(0));
            assert!((job.latency_us(i) - single.time_us()).abs() < 1e-9);
            wall_us += single.time_us();
            uj += single.energy().unwrap().total_uj();
        }
        // The modelled hardware runs items back to back, and energy
        // pricing is linear in activity.
        assert!((job.time_us() - wall_us).abs() < 1e-9);
        assert!((job.energy().unwrap().total_uj() - uj).abs() / uj < 1e-9);
    }

    fn run(latency_us: f64) -> BackendRun {
        BackendRun {
            outputs: vec![Q8p8::ONE],
            latency_s: latency_us * 1e-6,
            amortized_s: latency_us * 1e-6,
            stats: None,
        }
    }

    fn result(items: Vec<BackendRun>, wall_us: f64) -> JobResult {
        JobResult {
            backend: BackendKind::Functional,
            name: "test",
            clock_hz: 800e6,
            items,
            wall_s: wall_us * 1e-6,
            energy: None,
            phases: Vec::new(),
        }
    }

    fn serial(latencies_us: &[f64]) -> JobResult {
        let items = latencies_us.iter().map(|&l| run(l)).collect();
        result(items, latencies_us.iter().sum())
    }

    #[test]
    fn latency_distribution_metrics() {
        let r = serial(&[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(r.batch_size(), 4);
        assert!((r.mean_latency_us() - 2.5).abs() < 1e-12);
        assert_eq!(r.percentile_latency_us(50.0), 2.0);
        assert_eq!(r.percentile_latency_us(100.0), 4.0);
        assert_eq!(r.percentile_latency_us(0.0), 1.0);
        assert_eq!(r.outputs(0), &[Q8p8::ONE]);
    }

    #[test]
    fn throughput_is_batch_over_wall() {
        let r = serial(&[10.0, 10.0]);
        assert!((r.time_us() - 20.0).abs() < 1e-9);
        assert!((r.per_frame_us() - 10.0).abs() < 1e-9);
        assert!((r.frames_per_second() - 1e5).abs() < 1e-3);
    }

    #[test]
    fn display_reports_rate_without_energy() {
        let r = serial(&[5.0]);
        assert_eq!(
            r.to_string(),
            "test batch 1: 5.00 µs/frame, 200000 frames/s (item p95 5.00 µs)"
        );
        assert!(r.energy_per_frame_uj().is_none());
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn rejects_out_of_range_percentile() {
        let _ = serial(&[1.0]).percentile_latency_us(101.0);
    }

    #[test]
    fn percentile_conveniences_match_the_general_form() {
        let r = serial(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(r.p50(), r.percentile_latency_us(50.0));
        assert_eq!(r.p95(), r.percentile_latency_us(95.0));
        assert_eq!(r.p99(), r.percentile_latency_us(99.0));
        assert_eq!(r.p50(), 3.0);
        assert_eq!(r.p99(), 5.0);
    }

    #[test]
    fn amortized_distribution_separates_fused_items() {
        // A fused batch of 4: every item stamped with the whole batch's
        // 40 µs wall, amortized to 10 µs each.
        let items: Vec<BackendRun> = (0..4)
            .map(|_| BackendRun {
                outputs: vec![Q8p8::ONE],
                latency_s: 40.0e-6,
                amortized_s: 10.0e-6,
                stats: None,
            })
            .collect();
        let r = result(items, 40.0);
        // Latency percentiles are degenerate (by design: the batch
        // completes as a unit)...
        assert_eq!(r.p50(), r.p99());
        assert_eq!(r.p99(), 40.0);
        // ...while the amortized cost carries the per-frame number and
        // sums back to the wall.
        assert!((0..4).all(|i| r.amortized_latency_us(i) == 10.0));
        let amortized: f64 = (0..4).map(|i| r.amortized_latency_us(i)).sum();
        assert!((amortized - r.time_us()).abs() < 1e-9);
        // Unfused runs keep amortized == latency.
        assert_eq!(run(5.0).amortized_us(), run(5.0).latency_us());
    }

    #[test]
    fn percentile_helper_is_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "layer range")]
    fn rejects_empty_layer_range() {
        let model = two_layer_model();
        #[allow(clippy::reversed_empty_ranges)]
        let _ = model.infer(BackendKind::Functional).layers(1..1);
    }

    #[test]
    #[should_panic(expected = "batch must be non-empty")]
    fn rejects_empty_batch() {
        let model = two_layer_model();
        let _ = model.infer(BackendKind::Functional).submit(&[]);
    }

    #[test]
    #[should_panic(expected = "different PE count")]
    fn rejects_pe_mismatched_config_override() {
        let model = two_layer_model();
        let _ = model
            .infer(BackendKind::Functional)
            .config(EieConfig::default().with_num_pes(8))
            .submit(&batch(1));
    }
}
