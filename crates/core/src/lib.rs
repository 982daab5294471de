//! # eie-core — the public API of the EIE reproduction
//!
//! This crate ties the substrates together into the workflow a user of
//! the accelerator would follow:
//!
//! 1. **Configure** the accelerator with [`EieConfig`] (PE count, FIFO
//!    depth, SRAM width, clock — the design parameters of paper §IV/§VI),
//! 2. **Compile** pruned weights through the unified pipeline
//!    ([`EieConfig::pipeline`], or [`CompiledModel::compile`] for a
//!    whole model — weight sharing + interleaved CSC, paper §III) and
//!    optionally **deploy** the result as a versioned `.eie` artifact
//!    ([`CompiledModel::save`] / [`CompiledModel::load`]),
//! 3. **Execute** through the single inference surface: build an
//!    [`InferenceJob`] with [`CompiledModel::infer`] (pick a
//!    [`Backend`] — the cycle model for hardware numbers, the bit-exact
//!    [`Functional`] golden model for verification, the host-speed
//!    multi-threaded [`NativeCpu`] kernel for serving), scope it
//!    ([`InferenceJob::layers`], [`InferenceJob::config`],
//!    [`InferenceJob::energy`]) and [`submit`](InferenceJob::submit) a
//!    batch, obtaining a [`JobResult`] (outputs, latency distribution,
//!    per-layer statistics, energy),
//! 4. **Serve** the same artifact under live traffic with the
//!    `eie-serve` crate's `ModelServer` (request queue, dynamic
//!    micro-batching, worker threads — one [`Backend`] each).
//!
//! The sub-crates are re-exported under [`compress`], [`nn`], [`sim`],
//! [`energy`], [`baselines`] and [`fixed`] for direct access; the
//! [`prelude`] exposes the names almost every user needs.
//!
//! # Example
//!
//! ```
//! use eie_core::prelude::*;
//!
//! // AlexNet FC7 shape at 1/32 scale, Table III densities.
//! let layer = Benchmark::Alex7.generate_scaled(1, 32);
//! let config = EieConfig::default().with_num_pes(4);
//! let model = CompiledModel::compile_layer(config, &layer.weights);
//! let result = model
//!     .infer(BackendKind::CycleAccurate)
//!     .submit_one(&layer.sample_activations(7));
//! assert!(result.time_us() > 0.0);
//! assert!(result.energy().unwrap().total_uj() > 0.0);
//! ```

// `deny`, not `forbid`: the workspace's one `unsafe` expression — the
// call into the AVX2 instantiation of the lane walk, guarded by runtime
// detection (backend::native::block_lanes) — carries its own `#[allow]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
pub mod backend;
mod benchmarks;
mod config;
pub mod infer;
pub mod prelude;

pub use artifact::{ModelArtifactError, MODEL_EXTENSION, MODEL_MAGIC, MODEL_VERSION};
pub use backend::{
    Backend, BackendKind, BackendRun, CompiledModel, CycleAccurate, Functional, NativeCpu,
    PlannedLayer, ServedModel,
};
pub use benchmarks::BenchmarkInstance;
pub use config::EieConfig;
pub use infer::{percentile, run_stack_planned, InferenceJob, JobResult, LayerPhase};

/// The Deep Compression pipeline (re-export of `eie-compress`).
pub mod compress {
    pub use eie_compress::*;
}

/// The NN substrate and benchmark zoo (re-export of `eie-nn`).
pub mod nn {
    pub use eie_nn::*;
}

/// The cycle-accurate simulator (re-export of `eie-sim`).
pub mod sim {
    pub use eie_sim::*;
}

/// Energy/area/power models (re-export of `eie-energy`).
pub mod energy {
    pub use eie_energy::*;
}

/// CPU baselines (re-export of `eie-baselines`).
pub mod baselines {
    pub use eie_baselines::*;
}

/// Fixed-point arithmetic (re-export of `eie-fixed`).
pub mod fixed {
    pub use eie_fixed::*;
}
