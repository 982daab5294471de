//! `eie run` — load an artifact and serve a batch on a backend.

use eie_core::BackendKind;

use crate::commands::{load_model, parse_backend, sample_batch};
use crate::opts::Opts;
use crate::outln;
use crate::CliError;

const HELP: &str = "eie run — load a .eie artifact and serve a batch

USAGE:
    eie run <MODEL.eie> [OPTIONS]

OPTIONS:
    --backend <B>     cycle | functional | native[:threads] | streaming[:threads]
                      [default: native]
    --batch <N>       Batch size [default: 4]
    --density <D>     Input activation density in [0, 1] [default: 0.35]
    --signed          Sample signed activations (embedding/LSTM inputs)
    --seed <N>        Input sampling seed [default: 1]
    --verify          Also run the functional golden model and require
                      bit-exact agreement (exit 1 on divergence)
    -h, --help        Show this help";

pub fn run(mut opts: Opts) -> Result<(), CliError> {
    if opts.wants_help() {
        outln!("{HELP}");
        return Ok(());
    }
    let backend = match opts.value(&["--backend"])? {
        Some(name) => parse_backend(&name)?,
        None => BackendKind::NativeCpu(0),
    };
    let batch_size: usize = opts.parsed(&["--batch"])?.unwrap_or(4);
    let density: f64 = opts.parsed(&["--density"])?.unwrap_or(0.35);
    let signed = opts.flag("--signed");
    let seed: u64 = opts.parsed(&["--seed"])?.unwrap_or(1);
    let verify = opts.flag("--verify");
    let positional = opts.finish(1)?;
    let path = positional
        .first()
        .ok_or_else(|| CliError::Usage("run needs a model file (see --help)".into()))?;
    if batch_size == 0 {
        return Err(CliError::Usage("--batch must be positive".into()));
    }
    if !(0.0..=1.0).contains(&density) {
        return Err(CliError::Usage("--density must be in [0, 1]".into()));
    }

    let model = load_model(path)?;
    outln!("loaded    {model}");
    let batch = sample_batch(&model, batch_size, density, signed, seed);
    let job = model.infer(backend);
    let result = job.submit(&batch);
    outln!("served    {result}");
    if let Some(uj) = result.energy_per_frame_uj() {
        outln!("energy    {uj:.3} uJ/frame (modelled)");
    }

    if verify {
        let golden = model.infer(BackendKind::Functional).submit(&batch);
        for i in 0..batch.len() {
            if result.outputs(i) != golden.outputs(i) {
                return Err(CliError::Runtime(format!(
                    "verification FAILED: {backend} diverged from the functional \
                     golden model at batch item {i}"
                )));
            }
        }
        outln!(
            "verified  {} outputs bit-exact against the functional golden model",
            batch.len()
        );
    }
    Ok(())
}
