//! The Deep Compression pipeline of the EIE paper (§III).
//!
//! EIE operates on networks compressed by *Deep Compression* (Han et al.,
//! ICLR 2016): connections are **pruned** (4–25% density on the benchmark
//! layers), surviving weights are **shared** through a 16-entry codebook of
//! 4-bit indices, and the sparse matrix is stored in a **relative-indexed,
//! interleaved CSC** format partitioned across processing elements.
//!
//! This crate implements that entire pipeline:
//!
//! * [`CompilePipeline`] — the **single unified code path** through the
//!   stages (prune → quantize → encode → validate → pack), with optional
//!   codebook sharing across the layers of a model,
//! * [`prune`] — magnitude pruning of dense layers,
//! * [`kmeans1d`] / [`Codebook`] — weight sharing (k-means clustering into
//!   a 4-bit codebook; index 0 is reserved for the explicit zeros the
//!   encoding pads with),
//! * [`EncodedLayer`] / [`PeSlice`] — the interleaved CSC encoding with
//!   4-bit relative row indices and padding-zero insertion (paper Fig. 3),
//! * [`EncodingStats`] — storage/padding statistics (drives the paper's
//!   Fig. 12 and the compression-ratio accounting),
//! * [`LayerPlan`] — the pre-decoded execution plan (padding dropped,
//!   the PE slices merged into column-major blocks of 2-byte
//!   `accumulator << 4 | code` entries behind a 16-entry LUT) that
//!   host-speed kernels walk instead of re-decoding the compressed
//!   stream per call,
//! * [`WeightCodec`] — pluggable layer-image codecs (`csc-nibble`,
//!   `huffman-packed`, `bit-plane`): alternate byte streams that all
//!   decode back to the same [`EncodedLayer`], trading stored bytes
//!   against decode cost without touching any executor,
//! * [`ByteCursor`] — the one bounds-checked little-endian cursor every
//!   untrusted byte stream is parsed with (layer images here, the `.eie`
//!   container and the wire frames downstream),
//! * decoding back to [`CsrMatrix`] for golden-model verification.
//!
//! # Example
//!
//! ```
//! use eie_compress::{compress, CompressConfig};
//! use eie_nn::zoo::Benchmark;
//!
//! let layer = Benchmark::Alex7.generate_scaled(1, 32); // 128×128 @ 9%
//! let encoded = compress(&layer.weights, CompressConfig::with_pes(4));
//! assert_eq!(encoded.num_pes(), 4);
//! // Decoding reproduces the sparsity pattern exactly; values are
//! // quantized to the 16-entry codebook.
//! let decoded = encoded.decode();
//! assert_eq!(decoded.nnz(), layer.weights.nnz());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codebook;
pub mod codec;
mod cursor;
mod encode;
pub mod huffman;
mod kmeans;
mod pipeline;
mod plan;
pub mod prune;
mod serialize;
mod stats;

pub use codebook::{Codebook, CODEBOOK_SIZE, WEIGHT_BITS};
pub use codec::{
    decode_any, BitPlane, CscNibble, HuffmanPacked, ImagePlan, WeightCodec, WeightCodecKind, MAGIC,
};
pub use cursor::{ByteCursor, Truncated};
pub use encode::{
    compress, encode_with_codebook, CompressConfig, EncodedLayer, Entry, PeSlice,
    ValidateLayerError,
};
pub use kmeans::kmeans1d;
pub use pipeline::{CodebookStrategy, CompilePipeline};
pub use plan::{LayerPlan, PlanBlock, PlanEntry, BLOCK_ACCUMULATORS, LANE_WIDTH};
pub use serialize::DecodeLayerError;
pub use stats::EncodingStats;

// Re-exported so downstream crates don't need a direct eie-nn dependency
// for the common case.
pub use eie_nn::{CscMatrix, CsrMatrix};
