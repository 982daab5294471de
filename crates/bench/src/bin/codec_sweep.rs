//! Codec sweep: the storage/decode frontier of the pluggable weight
//! codecs.
//!
//! For each zoo layer and each registered [`WeightCodecKind`]
//! (csc-nibble, huffman-packed, bit-plane), measures:
//!
//! * **stored bytes** and the **compression ratio** versus the dense
//!   f32 weight matrix — the axis the codecs compete on,
//! * **encode** and **decode + plan-build** wall-clock — what a codec
//!   costs at artifact-write and model-load time (the layer image
//!   decoded straight into its plan, `WeightCodec::decode_plan`),
//! * the **cold start** of the layer as a one-layer `.eie` container:
//!   `cold_start_us` is everything a registry miss pays between having
//!   the file's bytes and being able to dispatch — payload CRC, the
//!   validating decode into plan blocks — i.e. the served load
//!   (`CompiledModel::load_served` for a one-thread native backend) —
//!   and `crc_us` is the container's own share of it
//!   (`CompiledModel::from_bytes` minus the layer decode inside it: the
//!   checksum plus header parsing).
//!
//! Every (layer, codec) pair is asserted to roundtrip **bit-exactly**
//! (`decode(encode(layer)) == layer`, directly and through the
//! container, which pins every backend's outputs) before any number is
//! recorded; the property tests pin the same identity against the
//! functional golden on all three backends.
//!
//! The (stored bytes, cold start) pairs are the frontier the codec set
//! is judged on: a codec that is both larger and slower to start than
//! another is dominated.
//!
//! Output: a frontier table + story on stdout (and
//! `results/codec_sweep.txt`), plus the machine-readable
//! **`BENCH_codec.json`** at the repo root (schema `eie-codec-sweep/v2`,
//! documented in `EXPERIMENTS.md`). Only a full-scale non-quick run
//! touches that file: `--quick` (the CI smoke: one layer, bounded
//! iterations) writes `results/codec_sweep_quick.json`, and an
//! `EIE_SCALE`'d run writes `results/codec_sweep_scaled.json`, so the
//! committed scale-1 record is never clobbered.

use std::fmt::Write as _;
use std::time::Instant;

use eie_bench::*;
use eie_core::baselines::TimingHarness;

/// One measured cell of the sweep.
struct Cell {
    layer: &'static str,
    rows: usize,
    cols: usize,
    entries: usize,
    codec: WeightCodecKind,
    stored_bytes: usize,
    ratio: f64,
    encode_us: f64,
    decode_plan_us: f64,
    crc_us: f64,
    cold_start_us: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let started = Instant::now();
    let config = paper_config();
    let harness = if quick {
        // Bounded by total time, not run count: at CI's 1/32 scale a
        // cell is microseconds, and the cold-start ratchet compares
        // medians of enough runs to be steady.
        TimingHarness {
            min_runs: 2,
            max_runs: 32,
            target_total_us: 1e5,
        }
    } else {
        TimingHarness {
            min_runs: 3,
            max_runs: 9,
            target_total_us: 5e5,
        }
    };
    let benchmarks: &[Benchmark] = if quick {
        &[Benchmark::Alex7]
    } else {
        &[
            Benchmark::Alex6,
            Benchmark::Alex7,
            Benchmark::Vgg6,
            Benchmark::NtWe,
            Benchmark::NtWd,
        ]
    };

    let mut table = TextTable::new(
        format!(
            "Codec sweep: stored bytes / ratio / encode / decode+plan / cold start, scale 1/{}, EIE = {}",
            scale_divisor(),
            config
        ),
        &[
            "layer",
            "codec",
            "bytes",
            "ratio",
            "vs csc",
            "enc µs",
            "dec+plan µs",
            "crc µs",
            "cold µs",
        ],
    );
    let mut cells: Vec<Cell> = Vec::new();
    // (layer, huffman ratio / csc ratio) pairs for the headline.
    let mut huffman_wins: Vec<(String, f64)> = Vec::new();

    for &benchmark in benchmarks {
        let layer = layer_at_scale(benchmark);
        let (rows, cols) = (layer.weights.rows(), layer.weights.cols());
        let model = model_at_scale(benchmark, config);
        let enc = model.layer(0);

        let mut csc_bytes = None;
        for codec in WeightCodecKind::ALL {
            let c = codec.codec();
            let image = c.encode(enc);
            let decoded = c.decode(&image).expect("codec image decodes");
            assert_eq!(
                &decoded, enc,
                "{codec} roundtrip diverged on {benchmark} — refusing to record perf"
            );
            assert_eq!(
                c.decode_plan(&image, 1).expect("codec image plans").plan,
                LayerPlan::build(enc),
                "{codec} plan diverged on {benchmark} — refusing to record perf"
            );
            // The same layer as a one-layer container in this codec: what
            // a registry reads from disk on a miss.
            let container =
                CompiledModel::from_layers(config.with_codec(codec), vec![enc.clone()]).to_bytes();
            let loaded = CompiledModel::from_bytes(&container).expect("container loads");
            assert_eq!(
                loaded.layer(0),
                enc,
                "{codec} container roundtrip diverged on {benchmark} — refusing to record perf"
            );
            println!(
                "verified: {codec} roundtrips {} bit-exactly ({} -> {} bytes)",
                benchmark.name(),
                enc.stats().dense_bytes,
                image.len()
            );

            let encode_us = harness.measure_us(|| c.encode(enc));
            let decode_plan_us =
                harness.measure_us(|| c.decode_plan(&image, 1).expect("decode_plan"));
            let decode_us = harness.measure_us(|| c.decode(&image).expect("decode"));
            let from_bytes_us =
                harness.measure_us(|| CompiledModel::from_bytes(&container).expect("load"));
            let crc_us = (from_bytes_us - decode_us).max(0.0);
            let cold_start_us = harness.measure_us(|| {
                let served = CompiledModel::load_served(&container, BackendKind::NativeCpu(1));
                served.expect("served load").plans.len()
            });
            let ratio = c.compression_ratio(enc);
            let vs_csc = csc_bytes
                .map(|b: usize| b as f64 / image.len() as f64)
                .unwrap_or(1.0);
            if codec == WeightCodecKind::CscNibble {
                csc_bytes = Some(image.len());
            }
            if codec == WeightCodecKind::HuffmanPacked {
                huffman_wins.push((benchmark.name().to_string(), vs_csc));
            }
            table.row(vec![
                benchmark.name().into(),
                codec.to_string(),
                image.len().to_string(),
                x(ratio),
                x(vs_csc),
                f(encode_us, 1),
                f(decode_plan_us, 1),
                f(crc_us, 1),
                f(cold_start_us, 1),
            ]);
            cells.push(Cell {
                layer: benchmark.name(),
                rows,
                cols,
                entries: enc.total_entries(),
                codec,
                stored_bytes: image.len(),
                ratio,
                encode_us,
                decode_plan_us,
                crc_us,
                cold_start_us,
            });
        }
        eprintln!(
            "[{} done in {:.1}s]",
            benchmark.name(),
            started.elapsed().as_secs_f64()
        );
    }

    let strict_wins = huffman_wins.iter().filter(|(_, r)| *r > 1.0).count();
    let best = huffman_wins
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one layer ran");
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nHeadline: huffman-packed stores strictly fewer bytes than csc-nibble on \
         {strict_wins}/{} layers (best {} on {}). All three codecs decode to the same \
         `EncodedLayer` — plans, schedules and every backend's outputs are bit-identical; \
         the codecs trade only artifact bytes against encode/decode time. csc-nibble is \
         the raw interleaved-CSC image (free decode), huffman-packed entropy-codes the \
         codebook-index and zero-run streams with canonical Huffman tables, and \
         bit-plane stores the same streams as sparsity-gated bit planes.",
        huffman_wins.len(),
        x(best.1),
        best.0,
    );
    emit("codec_sweep", &out);

    // ---- machine-readable record ------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"eie-codec-sweep/v2\",");
    let _ = writeln!(json, "  \"scale_divisor\": {},", scale_divisor());
    let _ = writeln!(json, "  \"pes\": {},", config.num_pes);
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"codecs\": [{}],",
        WeightCodecKind::ALL
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "  \"headline\": {{\"huffman_strict_wins\": {strict_wins}, \"layers\": {}, \
         \"best_layer\": \"{}\", \"best_bytes_vs_csc\": {:.3}}},",
        huffman_wins.len(),
        best.0,
        best.1,
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"layer\": \"{}\", \"rows\": {}, \"cols\": {}, \"entries\": {}, \
             \"codec\": \"{}\", \"stored_bytes\": {}, \"compression_ratio\": {:.3}, \
             \"encode_us\": {:.3}, \"decode_plan_us\": {:.3}, \"crc_us\": {:.3}, \
             \"cold_start_us\": {:.3}}}",
            c.layer,
            c.rows,
            c.cols,
            c.entries,
            c.codec,
            c.stored_bytes,
            c.ratio,
            c.encode_us,
            c.decode_plan_us,
            c.crc_us,
            c.cold_start_us,
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    // Only a full-scale, non-quick run may refresh the committed
    // repo-root record; quick and EIE_SCALE'd runs land in results/ so
    // the recorded scale-1 frontier is never clobbered.
    let path = if quick {
        results_dir().join("codec_sweep_quick.json")
    } else if scale_divisor() != 1 {
        results_dir().join("codec_sweep_scaled.json")
    } else {
        std::path::PathBuf::from("BENCH_codec.json")
    };
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
