//! The four subcommands, plus the helpers they share.

pub mod compress;
pub mod inspect;
pub mod run;
pub mod serve;

use eie_core::prelude::*;
use eie_core::BackendKind;

use crate::CliError;

/// Parses a backend name: `cycle`, `functional` or `native[:threads]`.
pub fn parse_backend(name: &str) -> Result<BackendKind, CliError> {
    match name {
        "cycle" | "cycle-accurate" => Ok(BackendKind::CycleAccurate),
        "functional" | "golden" => Ok(BackendKind::Functional),
        "native" | "native-cpu" => Ok(BackendKind::NativeCpu(0)),
        other => {
            if let Some(threads) = other
                .strip_prefix("native:")
                .or_else(|| other.strip_prefix("native-cpu:"))
            {
                let threads: usize = threads
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad thread count in {other:?}")))?;
                return Ok(BackendKind::NativeCpu(threads));
            }
            Err(CliError::Usage(format!(
                "unknown backend {other:?} \
                 (expected cycle | functional | native[:threads])"
            )))
        }
    }
}

/// Loads an artifact, mapping failures to runtime errors.
pub fn load_model(path: &str) -> Result<CompiledModel, CliError> {
    CompiledModel::load(path).map_err(|e| CliError::Runtime(format!("cannot load {path}: {e}")))
}

/// Samples a deterministic activation batch sized for the model's input
/// layer: item `i` uses `seed + i`, like the zoo's batch sampler.
pub fn sample_batch(
    model: &CompiledModel,
    batch: usize,
    density: f64,
    signed: bool,
    seed: u64,
) -> Vec<Vec<f32>> {
    (0..batch as u64)
        .map(|i| {
            eie_core::nn::zoo::sample_activations(
                model.input_dim(),
                density,
                signed,
                seed.wrapping_add(i),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_parse() {
        assert_eq!(parse_backend("cycle").unwrap(), BackendKind::CycleAccurate);
        assert_eq!(
            parse_backend("functional").unwrap(),
            BackendKind::Functional
        );
        assert_eq!(parse_backend("native").unwrap(), BackendKind::NativeCpu(0));
        assert_eq!(
            parse_backend("native:3").unwrap(),
            BackendKind::NativeCpu(3)
        );
        assert!(parse_backend("gpu").is_err());
        assert!(parse_backend("native:x").is_err());
        // No name selects anything but the three kinds above.
        for name in ["streaming", "streaming:2", concat!("native", "-streaming")] {
            assert!(
                matches!(parse_backend(name), Err(CliError::Usage(_))),
                "{name:?} must be rejected"
            );
        }
    }

    #[test]
    fn sample_batch_matches_model_input() {
        let w = random_sparse(16, 24, 0.3, 1);
        let model = CompiledModel::compile_layer(EieConfig::default().with_num_pes(2), &w);
        let batch = sample_batch(&model, 3, 0.5, false, 7);
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|item| item.len() == 24));
        // Deterministic and anchored per item.
        assert_eq!(batch, sample_batch(&model, 3, 0.5, false, 7));
        assert_ne!(batch[0], batch[1]);
    }
}
