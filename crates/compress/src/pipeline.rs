//! The compile pipeline: the **single** code path from weights to a
//! deployable encoded layer.
//!
//! Deep Compression + EIE is a fixed sequence of stages — **prune** →
//! **quantize** (codebook fit) → **encode** (interleaved CSC) →
//! **validate** → **pack** (binary image). Every entry point into that
//! sequence (`CompiledModel::compile`, the free
//! [`compress`](crate::compress) function) delegates to
//! [`CompilePipeline`], so there is exactly one implementation of the
//! model-build path and every artifact — whatever API produced it — went
//! through the same validation.
//!
//! The pipeline also owns the one genuinely new compression decision a
//! *whole-model* build has to make: whether each layer gets its own
//! codebook (the paper's per-layer tables) or all layers **share one
//! codebook** ([`CodebookStrategy::Shared`]) — a hardware simplification
//! that trades a little quantization error for a single weight-decoder
//! table.
//!
//! # Example
//!
//! ```
//! use eie_compress::{CodebookStrategy, CompilePipeline, CompressConfig};
//! use eie_nn::zoo::random_sparse;
//!
//! let w1 = random_sparse(32, 24, 0.2, 1);
//! let w2 = random_sparse(16, 32, 0.2, 2);
//! let pipeline = CompilePipeline::new(CompressConfig::with_pes(4))
//!     .with_codebook_strategy(CodebookStrategy::Shared);
//! let layers = pipeline.compile_stack(&[&w1, &w2]);
//! assert_eq!(layers.len(), 2);
//! assert_eq!(layers[0].codebook(), layers[1].codebook()); // shared
//! ```

use eie_nn::{CsrMatrix, Matrix};

use crate::prune::prune_to_density;
use crate::{encode_with_codebook, Codebook, CompressConfig, EncodedLayer, WeightCodecKind};

/// How the pipeline assigns codebooks to the layers of a model.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum CodebookStrategy {
    /// Fit an independent codebook per layer (the paper's configuration:
    /// each FC layer carries its own 16-entry table).
    #[default]
    PerLayer,
    /// Fit one codebook over the pooled weights of every layer and share
    /// it across the model (one decoder table for the whole chip).
    Shared,
    /// Use a caller-supplied codebook for every layer (ablations,
    /// deterministic tests).
    Fixed(Codebook),
}

/// The unified prune → quantize → encode → validate → pack pipeline.
///
/// Construct one from a [`CompressConfig`] (or from an accelerator
/// config via `EieConfig::pipeline()` in `eie-core`), optionally set a
/// prune density for dense inputs and a [`CodebookStrategy`], then
/// compile single matrices ([`compile_matrix`](Self::compile_matrix)),
/// dense layers ([`compile_dense`](Self::compile_dense)) or whole
/// feed-forward stacks ([`compile_stack`](Self::compile_stack)).
#[derive(Debug, Clone, PartialEq)]
pub struct CompilePipeline {
    config: CompressConfig,
    prune_density: Option<f64>,
    codebook: CodebookStrategy,
    codec: WeightCodecKind,
}

impl CompilePipeline {
    /// A pipeline with the given encoding configuration, no prune stage,
    /// per-layer codebooks and the raw [`CscNibble`] pack codec.
    ///
    /// [`CscNibble`]: crate::CscNibble
    pub fn new(config: CompressConfig) -> Self {
        Self {
            config,
            prune_density: None,
            codebook: CodebookStrategy::PerLayer,
            codec: WeightCodecKind::CscNibble,
        }
    }

    /// The encoding configuration the pipeline compiles for.
    pub fn config(&self) -> &CompressConfig {
        &self.config
    }

    /// Enables the prune stage: dense inputs are magnitude-pruned to at
    /// most this density before quantization. Sparse inputs
    /// ([`CsrMatrix`]) are assumed pre-pruned and skip this stage.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < density <= 1`.
    pub fn with_prune_density(mut self, density: f64) -> Self {
        assert!(
            density > 0.0 && density <= 1.0,
            "prune density must be in (0, 1], got {density}"
        );
        self.prune_density = Some(density);
        self
    }

    /// Sets the codebook strategy (default: [`CodebookStrategy::PerLayer`]).
    pub fn with_codebook_strategy(mut self, strategy: CodebookStrategy) -> Self {
        self.codebook = strategy;
        self
    }

    /// Sets the pack-stage codec (default:
    /// [`WeightCodecKind::CscNibble`]). The codec only changes the
    /// stored byte stream — the encode/validate stages and the decoded
    /// layer are identical for every codec.
    pub fn with_codec(mut self, codec: WeightCodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// The configured pack-stage codec.
    pub fn codec(&self) -> WeightCodecKind {
        self.codec
    }

    /// Quantize stage: fits a codebook over the pooled non-zero weights
    /// of `matrices` (respecting the config's k-means sample limit), or
    /// returns the fixed codebook if one was supplied.
    ///
    /// # Panics
    ///
    /// Panics if the matrices hold no non-zeros in total.
    pub fn fit_codebook(&self, matrices: &[&CsrMatrix]) -> Codebook {
        if let CodebookStrategy::Fixed(cb) = &self.codebook {
            return cb.clone();
        }
        let total: usize = matrices.iter().map(|m| m.nnz()).sum();
        assert!(total > 0, "cannot fit a codebook to all-zero weights");
        let stride = (total / self.config.kmeans_sample_limit).max(1);
        let sample: Vec<f32> = matrices
            .iter()
            .flat_map(|m| m.values().iter())
            .step_by(stride)
            .cloned()
            .collect();
        Codebook::fit(&sample, self.config.kmeans_iters)
    }

    /// Runs quantize → encode → validate on one pre-pruned matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no non-zeros, or if the encoder ever
    /// emitted an invalid layer (a bug — the validate stage is the
    /// pipeline's own acceptance gate, not an input check).
    pub fn compile_matrix(&self, matrix: &CsrMatrix) -> EncodedLayer {
        assert!(matrix.nnz() > 0, "cannot compress an all-zero matrix");
        let codebook = self.fit_codebook(&[matrix]);
        self.encode_and_validate(matrix, codebook)
    }

    /// Runs the full pipeline on a dense layer: prune (at the configured
    /// density) → quantize → encode → validate.
    ///
    /// # Panics
    ///
    /// Panics if no prune density was configured
    /// ([`with_prune_density`](Self::with_prune_density)), or if pruning
    /// leaves no non-zeros.
    pub fn compile_dense(&self, weights: &Matrix) -> EncodedLayer {
        let density = self
            .prune_density
            .expect("dense input needs with_prune_density(..) to configure the prune stage");
        let pruned = prune_to_density(weights, density);
        self.compile_matrix(&pruned)
    }

    /// Compiles a feed-forward stack of pre-pruned matrices, input to
    /// output, honouring the codebook strategy (a
    /// [`Shared`](CodebookStrategy::Shared) codebook is fitted over all
    /// layers' pooled weights).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, consecutive dimensions do not chain
    /// (`rows` of layer *i* must equal `cols` of layer *i+1*), or any
    /// matrix has no non-zeros.
    pub fn compile_stack(&self, weights: &[&CsrMatrix]) -> Vec<EncodedLayer> {
        assert!(!weights.is_empty(), "model needs at least one layer");
        for (i, pair) in weights.windows(2).enumerate() {
            assert_eq!(
                pair[0].rows(),
                pair[1].cols(),
                "layer dimension mismatch in model: layer {} outputs {} values \
                 but layer {} consumes {}",
                i,
                pair[0].rows(),
                i + 1,
                pair[1].cols(),
            );
        }
        match &self.codebook {
            CodebookStrategy::PerLayer => weights.iter().map(|w| self.compile_matrix(w)).collect(),
            CodebookStrategy::Shared | CodebookStrategy::Fixed(_) => {
                let codebook = self.fit_codebook(weights);
                weights
                    .iter()
                    .map(|w| self.encode_and_validate(w, codebook.clone()))
                    .collect()
            }
        }
    }

    /// Pack stage: the layer's binary image under the configured codec
    /// (for the default [`WeightCodecKind::CscNibble`] this is the
    /// `EIE1` SRAM image, [`CscNibble`](crate::CscNibble)).
    pub fn pack(&self, layer: &EncodedLayer) -> Vec<u8> {
        self.codec.codec().encode(layer)
    }

    /// Encode + validate: the shared tail of every compile path.
    fn encode_and_validate(&self, matrix: &CsrMatrix, codebook: Codebook) -> EncodedLayer {
        assert!(matrix.nnz() > 0, "cannot compress an all-zero matrix");
        let layer = encode_with_codebook(matrix, codebook, self.config);
        layer
            .validate()
            .expect("encoder produced an invalid layer (pipeline validate stage)");
        layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, CscNibble, WeightCodec};
    use eie_nn::zoo::random_sparse;

    #[test]
    fn compile_matrix_matches_legacy_compress() {
        // The free function is a shim over the pipeline: identical output.
        let m = random_sparse(48, 32, 0.2, 5);
        let config = CompressConfig::with_pes(4);
        let via_pipeline = CompilePipeline::new(config).compile_matrix(&m);
        let via_shim = compress(&m, config);
        assert_eq!(via_pipeline, via_shim);
    }

    #[test]
    fn dense_path_prunes_then_encodes() {
        let dense = Matrix::from_fn(32, 40, |r, c| ((r * 40 + c) as f32 * 0.37).sin());
        let pipeline = CompilePipeline::new(CompressConfig::with_pes(2)).with_prune_density(0.25);
        let layer = pipeline.compile_dense(&dense);
        assert_eq!(layer.rows(), 32);
        assert_eq!(layer.cols(), 40);
        let decoded = layer.decode();
        let density = decoded.nnz() as f64 / (32.0 * 40.0);
        assert!(density <= 0.26, "prune stage ignored: density {density}");
    }

    #[test]
    #[should_panic(expected = "with_prune_density")]
    fn dense_path_requires_configured_prune() {
        let dense = Matrix::from_fn(8, 8, |r, c| (r + c) as f32 + 1.0);
        let _ = CompilePipeline::new(CompressConfig::with_pes(2)).compile_dense(&dense);
    }

    #[test]
    fn shared_codebook_spans_the_stack() {
        let w1 = random_sparse(32, 24, 0.3, 1);
        let w2 = random_sparse(16, 32, 0.3, 2);
        let pipeline = CompilePipeline::new(CompressConfig::with_pes(4))
            .with_codebook_strategy(CodebookStrategy::Shared);
        let layers = pipeline.compile_stack(&[&w1, &w2]);
        assert_eq!(layers[0].codebook(), layers[1].codebook());

        // Per-layer fits differ (independent weight distributions).
        let per_layer =
            CompilePipeline::new(CompressConfig::with_pes(4)).compile_stack(&[&w1, &w2]);
        assert_ne!(per_layer[0].codebook(), per_layer[1].codebook());
    }

    #[test]
    fn fixed_codebook_is_used_verbatim() {
        let cb = Codebook::from_centroids(&[-1.0, 0.5, 1.0]);
        let w = random_sparse(24, 16, 0.3, 9);
        let pipeline = CompilePipeline::new(CompressConfig::with_pes(2))
            .with_codebook_strategy(CodebookStrategy::Fixed(cb.clone()));
        let layer = pipeline.compile_matrix(&w);
        assert_eq!(layer.codebook(), &cb);
        let stack = pipeline.compile_stack(&[&w]);
        assert_eq!(stack[0].codebook(), &cb);
    }

    #[test]
    fn stack_preserves_per_layer_bit_identity() {
        // Per-layer strategy on a stack must equal compiling each layer
        // alone: the stack adds chaining checks, not different encoding.
        let w1 = random_sparse(20, 12, 0.4, 3);
        let w2 = random_sparse(8, 20, 0.4, 4);
        let pipeline = CompilePipeline::new(CompressConfig::with_pes(2));
        let stack = pipeline.compile_stack(&[&w1, &w2]);
        assert_eq!(stack[0], pipeline.compile_matrix(&w1));
        assert_eq!(stack[1], pipeline.compile_matrix(&w2));
    }

    #[test]
    fn pack_is_the_layer_image() {
        let w = random_sparse(16, 8, 0.5, 7);
        let pipeline = CompilePipeline::new(CompressConfig::with_pes(2));
        let layer = pipeline.compile_matrix(&w);
        assert_eq!(pipeline.pack(&layer), CscNibble.encode(&layer));
    }

    #[test]
    fn pack_honours_the_configured_codec() {
        use crate::{HuffmanPacked, WeightCodec as _};
        let w = random_sparse(16, 8, 0.5, 7);
        let pipeline = CompilePipeline::new(CompressConfig::with_pes(2))
            .with_codec(WeightCodecKind::HuffmanPacked);
        assert_eq!(pipeline.codec(), WeightCodecKind::HuffmanPacked);
        let layer = pipeline.compile_matrix(&w);
        assert_eq!(pipeline.pack(&layer), HuffmanPacked.encode(&layer));
        assert_eq!(
            crate::decode_any(&pipeline.pack(&layer)).expect("roundtrip"),
            layer
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn stack_rejects_unchained_dims() {
        let w1 = random_sparse(20, 12, 0.4, 3);
        let w2 = random_sparse(8, 21, 0.4, 4);
        let _ = CompilePipeline::new(CompressConfig::with_pes(2)).compile_stack(&[&w1, &w2]);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn stack_rejects_empty() {
        let _ = CompilePipeline::new(CompressConfig::with_pes(2)).compile_stack(&[]);
    }

    #[test]
    #[should_panic(expected = "prune density")]
    fn rejects_bad_prune_density() {
        let _ = CompilePipeline::new(CompressConfig::default()).with_prune_density(0.0);
    }
}
