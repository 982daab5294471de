//! The four subcommands, plus the helpers they share.

pub mod bench;
pub mod compress;
pub mod inspect;
pub mod run;
pub mod serve;

use eie_core::prelude::*;
use eie_core::BackendKind;

use crate::CliError;

/// Parses a backend name: `cycle`, `functional`, `native[:threads]`, or
/// `streaming[:threads]` (the plan-less native baseline — the A/B knob
/// for `eie bench`).
pub fn parse_backend(name: &str) -> Result<BackendKind, CliError> {
    match name {
        "cycle" | "cycle-accurate" => Ok(BackendKind::CycleAccurate),
        "functional" | "golden" => Ok(BackendKind::Functional),
        "native" | "native-cpu" => Ok(BackendKind::NativeCpu(0)),
        "streaming" | "native-streaming" => Ok(BackendKind::NativeStreaming(0)),
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
            if let Some(threads) = other
                .strip_prefix("streaming:")
                .or_else(|| other.strip_prefix("native-streaming:"))
            {
                let threads: usize = threads
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad thread count in {other:?}")))?;
                return Ok(BackendKind::NativeStreaming(threads));
            }
            Err(CliError::Usage(format!(
                "unknown backend {other:?} \
                 (expected cycle | functional | native[:threads] | streaming[:threads])"
            )))
        }
    }
}

/// Parses the execution-layout options `run` and `bench` share:
/// `--shards S` (row shards per native dispatch) and `--stages auto|N`
/// (pipeline stage count, `auto` = one stage per layer).
///
/// Layout is a property of the native plan executor, so either on a
/// non-native backend is a usage error (exit 2) — as are zero counts
/// and a stage value that is neither `auto` nor a number.
pub fn parse_layout(
    opts: &mut crate::opts::Opts,
    backend: BackendKind,
) -> Result<Option<Topology>, CliError> {
    let shards: Option<usize> = opts.parsed(&["--shards"])?;
    let stages = match opts.value(&["--stages"])?.as_deref() {
        None => None,
        Some("auto") => Some(0usize),
        Some(raw) => match raw.parse::<usize>() {
            Ok(0) | Err(_) => {
                return Err(CliError::Usage(format!(
                    "--stages expects `auto` or a positive stage count, got {raw:?}"
                )))
            }
            Ok(n) => Some(n),
        },
    };
    if shards == Some(0) {
        return Err(CliError::Usage("--shards must be positive".into()));
    }
    if (shards.is_some() || stages.is_some()) && !matches!(backend, BackendKind::NativeCpu(_)) {
        return Err(CliError::Usage(format!(
            "--shards/--stages shape the native plan executor \
             and need --backend native, not {backend}"
        )));
    }
    Ok(match (shards, stages) {
        (None, None) => None,
        (shards, stages) => Some(
            Topology::single()
                .with_shards(shards.unwrap_or(1))
                .with_stages(stages.unwrap_or(1)),
        ),
    })
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
        assert_eq!(
            parse_backend("streaming").unwrap(),
            BackendKind::NativeStreaming(0)
        );
        assert_eq!(
            parse_backend("streaming:2").unwrap(),
            BackendKind::NativeStreaming(2)
        );
        assert!(parse_backend("gpu").is_err());
        assert!(parse_backend("native:x").is_err());
        assert!(parse_backend("streaming:x").is_err());
    }

    #[test]
    fn layout_options_parse_and_validate() {
        let native = BackendKind::NativeCpu(0);
        let layout = |args: &[&str], backend| {
            let mut opts = crate::opts::Opts::new(args.iter().map(|s| s.to_string()).collect());
            parse_layout(&mut opts, backend)
        };

        assert_eq!(layout(&[], native).unwrap(), None);
        let topology = layout(&["--shards", "2", "--stages", "auto"], native)
            .unwrap()
            .expect("topology requested");
        assert_eq!((topology.shards(), topology.stages()), (2, 0));
        let topology = layout(&["--stages", "3"], native).unwrap();
        assert_eq!(topology.expect("stages alone").stages(), 3);

        // Usage errors (exit 2): zero counts, bad stage words, layout
        // on a backend with no plan executor.
        for bad in [
            &["--shards", "0"][..],
            &["--stages", "0"],
            &["--stages", "fast"],
        ] {
            assert!(
                matches!(layout(bad, native), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
        for backend in [
            BackendKind::Functional,
            BackendKind::CycleAccurate,
            BackendKind::NativeStreaming(0),
        ] {
            let err = layout(&["--shards", "2"], backend).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("native")),
                "{err:?}"
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
