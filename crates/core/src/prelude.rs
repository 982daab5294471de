//! The names almost every user of the reproduction needs.
//!
//! ```
//! use eie_core::prelude::*;
//!
//! let config = EieConfig::default().with_num_pes(2);
//! let weights = random_sparse(32, 32, 0.2, 1);
//! let model = CompiledModel::compile_layer(config, &weights);
//! let out = model.infer(BackendKind::CycleAccurate).submit_one(&vec![1.0; 32]);
//! assert_eq!(out.outputs(0).len(), 32);
//! ```

pub use crate::backend::lane_isa;
pub use crate::{
    percentile, Backend, BackendKind, BackendRun, BenchmarkInstance, CompiledModel, CycleAccurate,
    EieConfig, Functional, InferenceJob, JobResult, LayerPhase, ModelArtifactError, NativeCpu,
    PlannedLayer,
};

pub use eie_compress::{
    compress, decode_any, encode_with_codebook, BitPlane, Codebook, CodebookStrategy,
    CompilePipeline, CompressConfig, CscNibble, EncodedLayer, EncodingStats, HuffmanPacked,
    LayerPlan, WeightCodec, WeightCodecKind, LANE_WIDTH,
};
pub use eie_energy::{platform::Platform, EnergyReport, LayerActivity, PeModel, SramModel};
pub use eie_fixed::{Accum32, Fix16, Precision, Q8p8, QFormat};
pub use eie_nn::zoo::{random_sparse, BenchLayer, Benchmark, DEFAULT_SEED};
pub use eie_nn::{Activation, CscMatrix, CsrMatrix, FcLayer, LstmCell, LstmState, Matrix, Mlp};
pub use eie_sim::{functional, simulate, simulate_network, LayerRun, SimConfig, SimStats};
