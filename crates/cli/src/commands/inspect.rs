//! `eie inspect` — print an artifact's header, topology, footprint and
//! per-layer execution plan (with its rail-free headroom).

use eie_core::backend::lane_isa;

use crate::commands::load_model;
use crate::opts::Opts;
use crate::outln;
use crate::CliError;

const HELP: &str = "eie inspect — print an artifact's header, topology and footprint

USAGE:
    eie inspect <MODEL.eie>

OPTIONS:
    -h, --help    Show this help";

pub fn run(opts: Opts) -> Result<(), CliError> {
    if opts.wants_help() {
        outln!("{HELP}");
        return Ok(());
    }
    let positional = opts.finish(1)?;
    let path = positional
        .first()
        .ok_or_else(|| CliError::Usage("inspect needs a model file (see --help)".into()))?;

    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let model = load_model(path)?;

    let codec = model.config().codec;
    outln!(
        "artifact  {path} ({file_bytes} bytes, container v{}, codec {codec})",
        model.container_version(),
    );
    if !model.name().is_empty() {
        outln!("name      {}", model.name());
    }
    outln!("config    {}", model.config());
    // What this host would run the plans below with, not a property of
    // the file.
    outln!("lanes: {}", lane_isa());
    outln!(
        "topology  {} layer{}, {} -> {} activations, codebooks {}",
        model.num_layers(),
        if model.num_layers() == 1 { "" } else { "s" },
        model.input_dim(),
        model.output_dim(),
        if model.has_shared_codebook() {
            "shared"
        } else {
            "per-layer"
        },
    );

    let mut dense_total = 0usize;
    let mut stored_total = 0usize;
    for (i, layer) in model.layers().iter().enumerate() {
        let stats = layer.stats();
        let stored = codec.codec().encoded_bytes(layer);
        dense_total += stats.dense_bytes;
        stored_total += stored;
        outln!(
            "layer {i:>3}  {}x{}  {} entries ({} padding), codebook {} entries, \
             codec {codec}: {} bytes ({:.1}x vs dense f32)",
            layer.rows(),
            layer.cols(),
            stats.total_entries(),
            stats.padding_entries,
            layer.codebook().len(),
            stored,
            codec.codec().compression_ratio(layer),
        );
        // The plan a server walks, with the activation range up to
        // which it proves every block rail-free (Q8.8 values).
        outln!("           {}", model.plan(i));
    }
    if model.num_layers() > 1 {
        outln!(
            "total     {} stored bytes, {:.1}x vs dense f32",
            stored_total,
            dense_total as f64 / stored_total as f64,
        );
    }
    Ok(())
}
