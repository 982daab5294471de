//! Pluggable execution backends: one compiled artifact, three engines.
//!
//! The paper's evaluation runs the same compressed layer on three very
//! different vehicles — RTL, a cycle-accurate simulator, and a golden
//! Caffe model. This module captures that structure as a [`Backend`]
//! trait over one [`CompiledModel`] artifact:
//!
//! * [`CycleAccurate`] — the `eie-sim` cycle model: *modelled* hardware
//!   latency (cycles at the configured clock) plus full activity
//!   statistics for energy pricing,
//! * [`Functional`] — the untimed bit-exact golden model (per-item host
//!   wall-clock is reported for bookkeeping, it models nothing),
//! * [`NativeCpu`] — an optimized, multi-threaded interleaved-CSC SpMV
//!   kernel executing the same [`EncodedLayer`] format at host speed:
//!   the serving path.
//!
//! All three produce **bit-identical `Q8p8` outputs** for the same
//! inputs: they share the broadcast schedule
//! ([`eie_sim::broadcast_schedule`]) and the hardware's accumulation
//! order, so saturation behaviour cannot diverge (asserted by the
//! cross-backend test-suite and a property test).

mod cycle;
mod functional;
mod native;
mod pool;

use std::fmt;
use std::sync::{Arc, OnceLock};

use eie_compress::{CodebookStrategy, EncodedLayer, LayerPlan};
use eie_fixed::Q8p8;
use eie_nn::CsrMatrix;
use eie_sim::SimStats;

use crate::EieConfig;

pub use cycle::CycleAccurate;
pub use functional::Functional;
pub use native::{host_cores, lane_block_items, lane_isa, NativeCpu};

/// Validates every item of a batch against a layer's input dimension —
/// the shared entry-point check every backend applies before touching
/// the kernel, so malformed input fails with one message everywhere.
///
/// # Panics
///
/// Panics if any item's length differs from `cols`.
pub(crate) fn check_activation_batch(cols: usize, batch: &[Vec<Q8p8>]) {
    for item in batch {
        assert_eq!(item.len(), cols, "activation length mismatch");
    }
}

/// Selects which backend executes a model — the serializable "name" of a
/// backend, resolved to an implementation by [`BackendKind::instantiate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The cycle-accurate simulator (modelled time and energy).
    #[default]
    CycleAccurate,
    /// The untimed bit-exact golden model.
    Functional,
    /// The host-speed multi-threaded kernel with this many worker
    /// threads (`0` = one per available core, or, behind a serving
    /// worker pool, each worker's share of them —
    /// [`BackendKind::per_worker`]), executing pre-decoded
    /// [`LayerPlan`]s on a persistent worker pool.
    NativeCpu(usize),
}

impl BackendKind {
    /// Builds the backend this kind names, for an accelerator config.
    pub fn instantiate(self, config: &EieConfig) -> Box<dyn Backend> {
        match self {
            BackendKind::CycleAccurate => Box::new(CycleAccurate::new(config.sim_config())),
            BackendKind::Functional => Box::new(Functional::new()),
            BackendKind::NativeCpu(0) => Box::new(NativeCpu::new()),
            BackendKind::NativeCpu(threads) => Box::new(NativeCpu::with_threads(threads)),
        }
    }

    /// The kind each of `workers` serving workers runs on a
    /// `cores`-core host: `NativeCpu(0)` becomes
    /// `NativeCpu(max(1, cores / workers))`, so the workers split the
    /// cores between them instead of each claiming all of them (a lone
    /// worker fans every dispatch out over the whole host; `workers ≥
    /// cores` leaves one thread each). Every other kind, an explicit
    /// `NativeCpu(t)` included, is kept as given.
    ///
    /// ```
    /// use eie_core::BackendKind;
    ///
    /// assert_eq!(BackendKind::NativeCpu(0).per_worker(2, 1), BackendKind::NativeCpu(2));
    /// assert_eq!(BackendKind::NativeCpu(0).per_worker(2, 2), BackendKind::NativeCpu(1));
    /// assert_eq!(BackendKind::NativeCpu(3).per_worker(2, 1), BackendKind::NativeCpu(3));
    /// ```
    pub fn per_worker(self, cores: usize, workers: usize) -> Self {
        match self {
            BackendKind::NativeCpu(0) => BackendKind::NativeCpu((cores / workers.max(1)).max(1)),
            other => other,
        }
    }

    /// The one place that decides which form of a layer this kind's
    /// backend walks: `Some(t)` when it walks [`LayerPlan`]s cut into at
    /// least `t` blocks (one per kernel thread; `NativeCpu(0)` counts the
    /// host's cores), `None` when it walks the [`EncodedLayer`]. Hand
    /// the backend the other form and it panics.
    ///
    /// ```
    /// use eie_core::BackendKind;
    ///
    /// assert_eq!(BackendKind::NativeCpu(3).plan_cut(), Some(3));
    /// assert_eq!(BackendKind::Functional.plan_cut(), None);
    /// ```
    pub fn plan_cut(self) -> Option<usize> {
        match self {
            BackendKind::NativeCpu(0) => Some(host_cores()),
            BackendKind::NativeCpu(threads) => Some(threads),
            BackendKind::CycleAccurate | BackendKind::Functional => None,
        }
    }

    /// `true` when this kind's [`BackendRun::latency_s`] is modelled
    /// hardware time; `false` when it is measured host wall-clock.
    pub fn is_modeled(self) -> bool {
        self == BackendKind::CycleAccurate
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::CycleAccurate => write!(f, "cycle-accurate"),
            BackendKind::Functional => write!(f, "functional"),
            BackendKind::NativeCpu(0) => write!(f, "native-cpu"),
            BackendKind::NativeCpu(t) => write!(f, "native-cpu({t})"),
        }
    }
}

/// One layer as a backend executes it: the compressed layer, or its
/// pre-built execution plan — what the inference core hands to
/// [`Backend::run_layer_batch_planned`].
///
/// Each backend walks exactly one form, the one its kind's
/// [`BackendKind::plan_cut`] names: the cycle model and the golden model
/// the encoded layer, the native kernel a plan. A [`CompiledModel`] hands
/// out either ([`CompiledModel::planned_layers`],
/// [`CompiledModel::layers`]); a native `ModelServer` keeps only the
/// plans, so its workers hold no encoded layer at all.
#[derive(Debug, Clone, Copy)]
pub enum PlannedLayer<'a> {
    /// The compressed layer, as stored in the artifact.
    Encoded(&'a EncodedLayer),
    /// The layer's pre-decoded plan.
    Plan(&'a Arc<LayerPlan>),
}

impl<'a> PlannedLayer<'a> {
    /// The encoded layer, for a backend that walks it.
    ///
    /// # Panics
    ///
    /// Panics on a plan: only a backend whose
    /// [`BackendKind::plan_cut`] is `Some` is handed one.
    fn encoded(self) -> &'a EncodedLayer {
        match self {
            PlannedLayer::Encoded(layer) => layer,
            PlannedLayer::Plan(_) => panic!("this backend walks encoded layers, not plans"),
        }
    }

    /// The plan, for a backend that walks plans.
    ///
    /// # Panics
    ///
    /// Panics on an encoded layer: only a backend whose
    /// [`BackendKind::plan_cut`] is `None` is handed one.
    fn plan(self) -> &'a Arc<LayerPlan> {
        match self {
            PlannedLayer::Plan(plan) => plan,
            PlannedLayer::Encoded(_) => panic!("this backend walks plans, not encoded layers"),
        }
    }
}

/// Per-item result of one backend execution (a layer or a network):
/// [`Backend::run_layer_batch_planned`] returns one per batch item.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Output activations by global row, Q8.8.
    pub outputs: Vec<Q8p8>,
    /// Item latency in seconds: modelled hardware time for
    /// [`CycleAccurate`] ([`BackendKind::is_modeled`]), measured host
    /// wall-clock otherwise.
    ///
    /// For items of a *fused* batch this is the whole batch's wall time
    /// (the batch completes as a unit, so that is each item's serving
    /// latency) — identical across the batch, which makes latency
    /// percentiles over fused runs degenerate. Throughput-style
    /// per-item cost lives in [`BackendRun::amortized_s`].
    pub latency_s: f64,
    /// Item cost in seconds with fused-batch wall time amortized over
    /// the batch (`wall / batch_size`). Equal to [`BackendRun::latency_s`]
    /// for unfused (solo or looped) execution.
    pub amortized_s: f64,
    /// Full cycle/activity statistics ([`CycleAccurate`] only).
    pub stats: Option<SimStats>,
}

impl BackendRun {
    /// Item latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.latency_s * 1e6
    }

    /// Amortized per-item cost in microseconds (`wall / batch` for
    /// fused batches, the plain latency otherwise).
    pub fn amortized_us(&self) -> f64 {
        self.amortized_s * 1e6
    }

    /// An unfused run: the amortized cost *is* the latency.
    pub(crate) fn solo(outputs: Vec<Q8p8>, latency_s: f64, stats: Option<SimStats>) -> Self {
        Self {
            outputs,
            latency_s,
            amortized_s: latency_s,
            stats,
        }
    }
}

/// An execution backend: anything that can run a compressed layer on
/// a batch of quantized activations.
///
/// The trait's surface is one layer-level primitive — a single item is
/// a batch of one — and multi-layer chaining (ReLU between layers)
/// lives in exactly one place, the inference core behind
/// [`CompiledModel::infer`](CompiledModel::infer) and
/// [`run_stack_planned`](crate::run_stack_planned), so a second
/// network path cannot drift from the served one. Which form of a layer
/// a backend walks, and whether its latency is modelled, are facts of
/// its [`BackendKind`] ([`BackendKind::plan_cut`],
/// [`BackendKind::is_modeled`]), not of the trait.
///
/// Implementations must be bit-exact with the functional golden model:
/// same zero-activation skipping (the broadcast schedule), same
/// accumulation order, same `Q8p8` writeback. Only *timing semantics*
/// may differ.
pub trait Backend: fmt::Debug + Send + Sync {
    /// A short stable name for reports (`"cycle-accurate"`, …).
    fn name(&self) -> &'static str;

    /// Executes a batch of activation vectors against one layer, in the
    /// form this backend walks (`relu` applies ReLU on writeback),
    /// returning one run per item.
    ///
    /// # Panics
    ///
    /// Panics if any item's length differs from the layer's input
    /// dimension, or if handed the form its [`BackendKind::plan_cut`]
    /// does not name.
    fn run_layer_batch_planned(
        &self,
        planned: PlannedLayer<'_>,
        batch: &[Vec<Q8p8>],
        relu: bool,
    ) -> Vec<BackendRun>;
}

/// A compressed model compiled for one accelerator configuration — the
/// single artifact every [`Backend`] executes, and the unit of
/// deployment (serializable to the versioned `.eie` container via
/// [`CompiledModel::save`] / [`CompiledModel::load`]).
///
/// Compiling fixes the PE interleaving, codebooks and index width; after
/// that the *same* artifact runs on the cycle model (for hardware
/// numbers), the functional model (for verification) or the native
/// kernel (for serving), with bit-identical outputs — whether it was
/// compiled in-process or loaded from a `.eie` file.
///
/// # Example
///
/// ```
/// use eie_core::{BackendKind, CompiledModel, EieConfig};
/// use eie_core::nn::zoo::random_sparse;
///
/// let w1 = random_sparse(32, 24, 0.2, 1);
/// let w2 = random_sparse(16, 32, 0.2, 2);
/// let model = CompiledModel::compile(
///     EieConfig::default().with_num_pes(4),
///     &[&w1, &w2],
/// );
/// assert_eq!(model.input_dim(), 24);
/// assert_eq!(model.output_dim(), 16);
/// let batch = vec![vec![1.0f32; 24]; 3];
/// let result = model.infer(BackendKind::Functional).submit(&batch);
/// assert_eq!(result.batch_size(), 3);
///
/// // The artifact roundtrips through the container format bit-exactly.
/// let restored = CompiledModel::from_bytes(&model.to_bytes()).unwrap();
/// assert_eq!(restored, model);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    config: EieConfig,
    layers: Vec<EncodedLayer>,
    name: String,
    /// Lazily-built execution plans, one slot per layer. Shared by
    /// every worker serving this model (behind the `Arc<CompiledModel>`
    /// a `ModelServer` hands out), so a model's layers are lowered at
    /// most once per process however many backends execute them; the
    /// engines own no plans of their own.
    plans: PlanCache,
}

/// Per-layer [`LayerPlan`] slots. A cache, not model content: cloning
/// clones whatever is built (cheap — the plans are `Arc`d), equality
/// always holds (two models with equal layers are equal whether or not
/// their plans have been built), and the artifact codec ignores it.
#[derive(Debug, Clone, Default)]
struct PlanCache(Vec<OnceLock<Arc<LayerPlan>>>);

impl PlanCache {
    fn for_layers(n: usize) -> Self {
        Self((0..n).map(|_| OnceLock::new()).collect())
    }
}

impl PartialEq for PlanCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl CompiledModel {
    /// Compresses a feed-forward stack of pruned weight matrices for the
    /// given accelerator configuration, one codebook per layer
    /// (delegates to the unified
    /// [`CompilePipeline`](eie_compress::CompilePipeline)).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, consecutive dimensions mismatch, or
    /// any matrix has no non-zeros.
    pub fn compile(config: EieConfig, weights: &[&CsrMatrix]) -> Self {
        let layers = config.pipeline().compile_stack(weights);
        let plans = PlanCache::for_layers(layers.len());
        Self {
            config,
            layers,
            name: String::new(),
            plans,
        }
    }

    /// Like [`CompiledModel::compile`], but fits **one codebook shared
    /// by every layer** (a single weight-decoder table for the chip).
    ///
    /// # Panics
    ///
    /// Same conditions as [`CompiledModel::compile`].
    pub fn compile_shared_codebook(config: EieConfig, weights: &[&CsrMatrix]) -> Self {
        let layers = config
            .pipeline()
            .with_codebook_strategy(CodebookStrategy::Shared)
            .compile_stack(weights);
        let plans = PlanCache::for_layers(layers.len());
        Self {
            config,
            layers,
            name: String::new(),
            plans,
        }
    }

    /// Compiles a single-layer model.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no non-zeros.
    pub fn compile_layer(config: EieConfig, weights: &CsrMatrix) -> Self {
        Self::compile(config, &[weights])
    }

    /// Constructor for deserialization and zoo export: adopts
    /// already-encoded layers without re-running the pipeline. The
    /// caller (the artifact loader) has validated the invariants.
    pub(crate) fn from_parts(config: EieConfig, layers: Vec<EncodedLayer>, name: String) -> Self {
        let plans = PlanCache::for_layers(layers.len());
        Self {
            config,
            layers,
            name,
            plans,
        }
    }

    /// Adopts already-encoded layers as a model — the bridge for code
    /// that compiles layers individually (e.g. via
    /// [`CompilePipeline::compile_dense`](eie_compress::CompilePipeline::compile_dense))
    /// but wants the unified [`CompiledModel::infer`] surface.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, any layer was compressed for a
    /// different PE count than `config`, or consecutive layer dimensions
    /// mismatch.
    pub fn from_layers(config: EieConfig, layers: Vec<EncodedLayer>) -> Self {
        assert!(!layers.is_empty(), "model needs at least one layer");
        for layer in &layers {
            assert_eq!(
                layer.num_pes(),
                config.num_pes,
                "layer compressed for a different PE count"
            );
        }
        for pair in layers.windows(2) {
            assert_eq!(
                pair[1].cols(),
                pair[0].rows(),
                "layer dimension mismatch in the stack"
            );
        }
        let plans = PlanCache::for_layers(layers.len());
        Self {
            config,
            layers,
            name: String::new(),
            plans,
        }
    }

    /// Names the model (recorded in the `.eie` container's topology
    /// metadata; purely descriptive).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The model's name ("" when unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True when every layer references one identical codebook (the
    /// pipeline's shared-codebook mode; trivially true for one layer).
    pub fn has_shared_codebook(&self) -> bool {
        self.layers
            .windows(2)
            .all(|pair| pair[0].codebook() == pair[1].codebook())
    }

    /// The configuration the model was compiled for.
    pub fn config(&self) -> &EieConfig {
        &self.config
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The encoded layers, input to output.
    pub fn layers(&self) -> &[EncodedLayer] {
        &self.layers
    }

    /// One encoded layer.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_layers()`.
    pub fn layer(&self, i: usize) -> &EncodedLayer {
        &self.layers[i]
    }

    /// The pre-decoded execution plan of layer `i`, lowered on first
    /// access and cached for the life of the model. Every plan-aware
    /// backend serving this model (however many workers) scans the same
    /// shared plan — the entry stream is decoded at most once per layer
    /// per process.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_layers()`.
    pub fn plan(&self, i: usize) -> &Arc<LayerPlan> {
        self.plan_cut(i, 1)
    }

    /// [`CompiledModel::plan`], built — if the slot is still empty —
    /// cut into at least `min_blocks` blocks where the rows allow.
    pub(crate) fn plan_cut(&self, i: usize, min_blocks: usize) -> &Arc<LayerPlan> {
        self.plans.0[i]
            .get_or_init(|| Arc::new(LayerPlan::build_with_blocks(&self.layers[i], min_blocks)))
    }

    /// Builds every layer's plan cut into at least `min_blocks` blocks
    /// where the rows allow ([`LayerPlan::build_with_blocks`]), so a
    /// [`NativeCpu`] fanning out over `min_blocks` threads walks every
    /// block range of the shared plan. A cached plan already cut that
    /// finely is kept; a coarser one is rebuilt. `ModelServer::start`
    /// calls this once, before spawning workers.
    pub fn cut_plans(&mut self, min_blocks: usize) {
        for (layer, slot) in self.layers.iter().zip(&mut self.plans.0) {
            let fits = |plan: &Arc<LayerPlan>| plan.blocks().len() >= min_blocks.min(plan.rows());
            if !slot.get().is_some_and(fits) {
                let plan = LayerPlan::build_with_blocks(layer, min_blocks);
                *slot = OnceLock::from(Arc::new(plan));
            }
        }
    }

    /// How many of the model's layer plans have been built so far.
    pub fn plans_built(&self) -> usize {
        self.plans
            .0
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Every layer's cached plan as a [`PlannedLayer`], input to output
    /// (building any plan not yet lowered) — what the inference core
    /// hands to plan-aware backends.
    pub fn planned_layers(&self) -> Vec<PlannedLayer<'_>> {
        (0..self.num_layers())
            .map(|i| PlannedLayer::Plan(self.plan(i)))
            .collect()
    }

    /// Consumes the model into its layers' plans, cut into at least
    /// `min_blocks` blocks where the rows allow
    /// ([`CompiledModel::cut_plans`]), and drops the encoded layers —
    /// what a native `ModelServer` keeps: one resident copy of the
    /// weights, the one its kernel walks.
    pub fn into_plans(mut self, min_blocks: usize) -> Vec<Arc<LayerPlan>> {
        self.cut_plans(min_blocks);
        let slots = self.plans.0.into_iter();
        slots
            .map(|slot| slot.into_inner().expect("cut_plans fills every slot"))
            .collect()
    }

    /// Consumes the model into the one form `backend` walks
    /// ([`BackendKind::plan_cut`]): its plans cut for the backend's
    /// threads (the encoded layers freed), or its encoded layers (no
    /// plan built). [`CompiledModel::load_served`] gives the same from a
    /// stored artifact without decoding an encoded layer.
    pub fn into_served(self, backend: BackendKind) -> ServedModel {
        let (name, config, input_dim) = (self.name.clone(), self.config, self.input_dim());
        let (plans, layers) = match backend.plan_cut() {
            Some(threads) => (self.into_plans(threads), Vec::new()),
            None => (Vec::new(), self.layers),
        };
        ServedModel {
            name,
            config,
            input_dim,
            plans,
            layers,
        }
    }

    /// Input dimension (first layer's columns).
    pub fn input_dim(&self) -> usize {
        self.layers[0].cols()
    }

    /// Output dimension (last layer's rows).
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].rows()
    }
}

/// A model in the one form its backend walks — what a serving node
/// keeps resident: every layer's plan for a backend that walks plans,
/// the encoded layers otherwise, never both. Made by
/// [`CompiledModel::into_served`] or, from a stored artifact, by
/// [`CompiledModel::load_served`].
#[derive(Debug)]
pub struct ServedModel {
    /// The model's name ("" when unnamed).
    pub name: String,
    /// The configuration the model was compiled for.
    pub config: EieConfig,
    /// Input dimension (first layer's columns).
    pub input_dim: usize,
    /// Every layer's plan, input to output — empty unless the backend
    /// walks plans.
    pub plans: Vec<Arc<LayerPlan>>,
    /// The encoded layers, input to output — empty when the backend
    /// walks plans.
    pub layers: Vec<EncodedLayer>,
}

impl ServedModel {
    /// The layers as the backend is handed them, input to output.
    pub fn planned_layers(&self) -> Vec<PlannedLayer<'_>> {
        let plans = self.plans.iter().map(PlannedLayer::Plan);
        plans
            .chain(self.layers.iter().map(PlannedLayer::Encoded))
            .collect()
    }
}

impl fmt::Display for CompiledModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompiledModel(")?;
        if !self.name.is_empty() {
            write!(f, "{:?}, ", self.name)?;
        }
        write!(
            f,
            "{} layers, {}→{}, {})",
            self.num_layers(),
            self.input_dim(),
            self.output_dim(),
            self.config
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eie_compress::compress;
    use eie_nn::zoo::random_sparse;

    fn quantize(acts: &[f32]) -> Vec<Q8p8> {
        acts.iter().map(|&a| Q8p8::from_f32(a)).collect()
    }

    #[test]
    fn kinds_instantiate_matching_backends() {
        let cfg = EieConfig::default().with_num_pes(2);
        assert_eq!(
            BackendKind::CycleAccurate.instantiate(&cfg).name(),
            "cycle-accurate"
        );
        assert_eq!(
            BackendKind::Functional.instantiate(&cfg).name(),
            "functional"
        );
        assert_eq!(
            BackendKind::NativeCpu(3).instantiate(&cfg).name(),
            "native-cpu"
        );
        assert!(BackendKind::CycleAccurate.is_modeled());
        assert!(!BackendKind::NativeCpu(0).is_modeled());
        assert_eq!(BackendKind::default(), BackendKind::CycleAccurate);
        assert_eq!(BackendKind::NativeCpu(4).to_string(), "native-cpu(4)");
    }

    #[test]
    fn the_default_kernel_splits_the_cores_over_the_workers() {
        let auto = BackendKind::NativeCpu(0);
        for (cores, workers, kind, threads) in [
            (1, 1, auto, 1),
            (2, 1, auto, 2),
            (2, 2, auto, 1),
            (2, 3, auto, 1),
            (8, 3, auto, 2),
            (64, 64, auto, 1),
            (2, 1, BackendKind::NativeCpu(3), 3),
            (8, 8, BackendKind::NativeCpu(3), 3),
        ] {
            assert_eq!(
                kind.per_worker(cores, workers),
                BackendKind::NativeCpu(threads),
                "{cores} cores, {workers} workers, {kind}"
            );
        }
        for kind in [BackendKind::Functional, BackendKind::CycleAccurate] {
            assert_eq!(kind.per_worker(8, 1), kind);
        }
        assert_eq!(auto.to_string(), "native-cpu");
    }

    #[test]
    fn cut_plans_fits_every_layer_to_the_fan_out_and_keeps_finer_cuts() {
        let w1 = random_sparse(24, 16, 0.3, 1);
        let w2 = random_sparse(3, 24, 0.6, 2);
        let mut model = CompiledModel::compile(EieConfig::default().with_num_pes(2), &[&w1, &w2]);
        let coarse = Arc::clone(model.plan(0));
        assert_eq!(coarse.blocks().len(), 1);
        model.cut_plans(4);
        // Four blocks where the rows allow, one per row where they don't.
        assert_eq!(model.plan(0).blocks().len(), 4);
        assert_eq!(model.plan(1).blocks().len(), 3);
        assert!(
            !Arc::ptr_eq(&coarse, model.plan(0)),
            "a coarse plan is rebuilt"
        );
        // A plan cut finely enough is kept as is.
        let fine = Arc::clone(model.plan(0));
        model.cut_plans(2);
        assert!(Arc::ptr_eq(&fine, model.plan(0)));
        let input = vec![vec![0.5f32; 16]];
        let want = model.infer(BackendKind::Functional).submit(&input);
        let got = model.infer(BackendKind::NativeCpu(4)).submit(&input);
        assert_eq!(got.outputs(0), want.outputs(0));
    }

    #[test]
    fn stack_chaining_applies_relu_between() {
        let w1 = CsrMatrix::from_triplets(2, 2, &[(0, 0, -1.0), (1, 1, 1.0)]);
        let w2 = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        let cfg = EieConfig::default().with_num_pes(2);
        let l1 = compress(&w1, cfg.compress_config());
        let l2 = compress(&w2, cfg.compress_config());
        let backend = Functional::new();
        let layers = [PlannedLayer::Encoded(&l1), PlannedLayer::Encoded(&l2)];
        let runs = crate::run_stack_planned(&backend, &layers, &[quantize(&[1.0, 1.0])]);
        // Layer 1 raw: [-1, 1] → ReLU → [0, 1]; layer 2: 0 + 1 = 1.
        assert_eq!(runs[0].outputs.len(), 1);
        assert_eq!(runs[0].outputs[0].to_f32(), 1.0);
    }

    #[test]
    fn compiled_model_reports_shape_and_runs() {
        let w1 = random_sparse(24, 16, 0.3, 1);
        let w2 = random_sparse(8, 24, 0.3, 2);
        let model = CompiledModel::compile(EieConfig::default().with_num_pes(4), &[&w1, &w2]);
        assert_eq!(model.num_layers(), 2);
        assert_eq!(model.input_dim(), 16);
        assert_eq!(model.output_dim(), 8);
        assert_eq!(model.layer(0).num_pes(), 4);
        assert!(model.to_string().contains("16→8"));
        let batch = vec![vec![0.5f32; 16]; 2];
        let result = model.infer(BackendKind::Functional).submit(&batch);
        assert_eq!(result.batch_size(), 2);
        assert_eq!(result.outputs(0).len(), 8);
    }

    #[test]
    fn from_layers_adopts_individually_compiled_layers() {
        let cfg = EieConfig::default().with_num_pes(2);
        let w1 = random_sparse(24, 16, 0.3, 5);
        let w2 = random_sparse(8, 24, 0.3, 6);
        let pipeline = cfg.pipeline();
        let model = CompiledModel::from_layers(
            cfg,
            vec![pipeline.compile_matrix(&w1), pipeline.compile_matrix(&w2)],
        );
        assert_eq!(model.input_dim(), 16);
        assert_eq!(model.output_dim(), 8);
        let compiled = CompiledModel::compile(cfg, &[&w1, &w2]);
        let input = vec![vec![0.25f32; 16]];
        assert_eq!(
            model
                .infer(BackendKind::Functional)
                .submit(&input)
                .outputs(0),
            compiled
                .infer(BackendKind::Functional)
                .submit(&input)
                .outputs(0)
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn from_layers_rejects_mismatched_stack() {
        let cfg = EieConfig::default().with_num_pes(2);
        let pipeline = cfg.pipeline();
        let _ = CompiledModel::from_layers(
            cfg,
            vec![
                pipeline.compile_matrix(&random_sparse(24, 16, 0.3, 5)),
                pipeline.compile_matrix(&random_sparse(8, 23, 0.3, 6)),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn compile_rejects_mismatched_stack() {
        let w1 = random_sparse(24, 16, 0.3, 1);
        let w2 = random_sparse(8, 23, 0.3, 2);
        let _ = CompiledModel::compile(EieConfig::default().with_num_pes(2), &[&w1, &w2]);
    }
}
