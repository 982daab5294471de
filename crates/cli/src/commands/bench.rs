//! `eie bench` — measure artifact load and serving throughput.

use std::time::Instant;

use eie_core::prelude::*;
use eie_core::BackendKind;

use crate::commands::{load_model, parse_backend, sample_batch};
use crate::opts::Opts;
use crate::outln;
use crate::CliError;

const HELP: &str = "eie bench — measure .eie load time and serving throughput

USAGE:
    eie bench <MODEL.eie> [OPTIONS]

OPTIONS:
    --backend <B>     cycle | functional | native[:threads]
                      [default: native]
    --batch <N>       Batch size per iteration [default: 16]
    --iters <N>       Serving iterations (best is reported) [default: 5]
    --density <D>     Input activation density [default: 0.35]
    --seed <N>        Input sampling seed [default: 1]
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
    let batch_size: usize = opts.parsed(&["--batch"])?.unwrap_or(16);
    let iters: usize = opts.parsed(&["--iters"])?.unwrap_or(5);
    let density: f64 = opts.parsed(&["--density"])?.unwrap_or(0.35);
    let seed: u64 = opts.parsed(&["--seed"])?.unwrap_or(1);
    let positional = opts.finish(1)?;
    let path = positional
        .first()
        .ok_or_else(|| CliError::Usage("bench needs a model file (see --help)".into()))?;
    if batch_size == 0 || iters == 0 {
        return Err(CliError::Usage(
            "--batch and --iters must be positive".into(),
        ));
    }

    // Load-path throughput: read + decode + validate, best of 3 (the
    // build-once/load-many cost every serving worker pays at startup).
    let file_bytes = std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| CliError::Runtime(format!("cannot stat {path}: {e}")))?;
    let mut best_load_s = f64::INFINITY;
    let mut model = load_model(path)?;
    for _ in 0..3 {
        let start = Instant::now();
        model = load_model(path)?;
        best_load_s = best_load_s.min(start.elapsed().as_secs_f64());
    }
    outln!("loaded    {model}");
    outln!(
        "load      {:.2} ms best-of-3 ({:.1} MB/s over {} bytes)",
        best_load_s * 1e3,
        file_bytes as f64 / best_load_s / 1e6,
        file_bytes,
    );

    // Serving throughput: repeated batches, best and mean.
    let batch = sample_batch(&model, batch_size, density, false, seed);
    let job = model.infer(backend);
    let mut results: Vec<JobResult> = Vec::with_capacity(iters);
    for _ in 0..iters {
        results.push(job.submit(&batch));
    }
    let best = results
        .iter()
        .max_by(|a, b| {
            a.frames_per_second()
                .partial_cmp(&b.frames_per_second())
                .expect("throughputs are finite")
        })
        .expect("iters >= 1");
    let mean_fps = results
        .iter()
        .map(JobResult::frames_per_second)
        .sum::<f64>()
        / results.len() as f64;
    outln!(
        "serve     {backend}: best {:.0} frames/s (mean {mean_fps:.0} over {iters} iterations \
         of batch {batch_size})",
        best.frames_per_second(),
    );
    outln!("best      {best}");
    Ok(())
}
