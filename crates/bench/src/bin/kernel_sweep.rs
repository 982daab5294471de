//! Kernel sweep: the reproducible perf baseline of the native hot path.
//!
//! Measures layer throughput across a batch-size sweep (1, 2, 3, 4, 8,
//! 16, 32) for two kernels:
//!
//! * **streaming** — per-call entry-stream decode, scoped threads (the
//!   pre-plan code path, kept alive as `NativeCpu::without_plans`),
//! * **plan** — the column-major packed [`LayerPlan`] on the persistent
//!   pool: the single-item walk at batch 1, the batch-lane vectorized
//!   walk above it (fixed-width, 32-byte-aligned `[i32; LANE_WIDTH]`
//!   MACs; the recorded `simd` field is the instantiation the host
//!   dispatched to, `lane_isa()`).
//!
//! Each thread count walks the plan a server with that many kernel
//! threads shares between its workers: the model's plan cut once for
//! the fan-out (`CompiledModel::cut_plans`), asserted never re-blocked.
//!
//! Every cell is also priced: the bytes of the structure the kernel
//! walks, the bytes of live columns' runs it touches per frame, the
//! achieved GB/s and GMAC/s, and the share of walked entries that took
//! the rail-free (wrapping) path — from the same public predicate the
//! kernel asks. **Roof probes** run first and put every plan cell
//! against the host instead of against the last PR: `roof_stream_gbps`
//! (a sequential `u16` read of a plan-sized buffer — the most an entry
//! stream can deliver) and `roof_lane_steps_per_s` /
//! `roof_single_steps_per_s` (the kernel's own rail-free entry step on
//! an L1-resident block of accumulators, through the same dispatcher,
//! as a full lane block and as one item); a plan cell's `roof_share` is
//! the larger of its GB/s over the stream roof and its entry steps/s
//! over its step roof — whichever wall it is closer to. The zoo layers prove
//! rail-free on their inputs; one synthetic **near-rail** row (dense-ish
//! weights around ±2.0, full-scale mixed-sign inputs) does not, and
//! keeps the saturating fallback's cost on the record. Both kernels are
//! asserted bit-exact against the functional golden model — at batch 1
//! and at the largest swept batch — before any number is recorded.
//!
//! Output: a table + story on stdout (and `results/kernel_sweep.txt`),
//! plus the machine-readable **`BENCH_kernel.json`** at the repo root —
//! the recorded perf trajectory (schema `eie-kernel-sweep/v5`,
//! documented in `EXPERIMENTS.md`). Only a full-scale non-quick run
//! touches that file: `--quick` (the CI smoke: one layer, bounded
//! iterations, batches 1 and 8, at 1 and — where the host has them —
//! 2 threads) writes
//! `results/kernel_sweep_quick.json`, and an `EIE_SCALE`'d run writes
//! `results/kernel_sweep_scaled.json`, so the committed scale-1 record
//! is never clobbered.

use std::fmt::Write as _;
use std::hint::black_box;
use std::mem::{size_of, size_of_val};
use std::time::Instant;

use eie_bench::*;
use eie_core::backend::host_cores;
use eie_core::baselines::TimingHarness;
use eie_core::compress::{Entry, PlanEntry};

/// One measured cell of the sweep.
struct Cell {
    layer: &'static str,
    rows: usize,
    cols: usize,
    pes: usize,
    threads: usize,
    /// Batch size of the run (1 = single-item path).
    batch: usize,
    /// `"streaming"` or `"plan"`.
    kernel: &'static str,
    us_per_frame: f64,
    frames_per_second: f64,
    /// Resident bytes of the structure the kernel walks (the plan, or
    /// the in-memory entry stream and its 64 extent indexes).
    plan_bytes: usize,
    /// `plan_bytes` over the layer's real (non-padding) entries.
    bytes_per_entry: f64,
    /// Bytes of the live columns' entry runs walked, per frame.
    bytes_touched: f64,
    gbps: f64,
    gmacs: f64,
    /// Entries walked with wrapping adds ÷ entries walked (0 for the
    /// streaming kernel, which always saturates).
    rail_free_share: f64,
    /// The larger of `gbps` ÷ the stream roof and entry steps/s ÷ the
    /// cell's step roof (0 for the streaming kernel, which walks a
    /// different structure than the roofs were probed for).
    roof_share: f64,
}

/// A roof is the best the host did, not its typical run: the fastest
/// of five of the harness's medians, µs.
fn fastest_us<T>(harness: &TimingHarness, mut f: impl FnMut() -> T) -> f64 {
    (0..5)
        .map(|_| harness.measure_us(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// The most an entry stream can deliver on this host, GB/s: a
/// sequential read of `bytes` of `u16`s, the plan's entry type, summed
/// so the read cannot be elided.
fn roof_stream_gbps(harness: &TimingHarness, bytes: usize) -> f64 {
    let stream: Vec<u16> = (0..bytes / size_of::<u16>()).map(|i| i as u16).collect();
    let sum = |s: &[u16]| s.iter().fold(0u16, |acc, &v| acc.wrapping_add(v));
    let us = fastest_us(harness, || sum(black_box(&stream)));
    size_of_val(stream.as_slice()) as f64 / (us * 1e3)
}

/// The most entry steps per second the kernel's own loops retire on
/// this host, `(lane, single)`: a layer of `ROOF_ROWS` accumulators —
/// 8 KiB of stripes, L1-resident — whose every column is a full run,
/// every activation live and every block proved rail-free, dispatched
/// like any request (so through the same AVX2-or-baseline choice) as
/// one full lane block, then as one item. A lane step is one
/// `stripe[e >> 4] += products[e & 15]`, a single step the same on one
/// `i32` — different instructions, hence a roof each.
fn roof_steps_per_s(harness: &TimingHarness, config: EieConfig) -> (f64, f64) {
    const ROOF_ROWS: usize = 256;
    const ROOF_COLS: usize = 2048;
    let mut weights = random_sparse(ROOF_ROWS, ROOF_COLS, 1.0, DEFAULT_SEED);
    for w in weights.values_mut() {
        *w = (0.125 + w.abs() % 0.5).copysign(*w);
    }
    let model = CompiledModel::compile_layer(config, &weights);
    let plan = model.plan(0);
    let batch = vec![vec![Q8p8::from_f32(0.25); ROOF_COLS]; LANE_WIDTH];
    assert_eq!(plan.total_entries(), ROOF_ROWS * ROOF_COLS, "a full layer");
    assert_eq!(rail_free_share(plan, &batch), 1.0, "the rail-free step");
    let engine = NativeCpu::with_threads(1);
    let planned = model.planned_layer(0);
    let steps = plan.total_entries() as f64;
    let lane_us = fastest_us(harness, || {
        engine.run_layer_batch_planned(planned, &batch, false)
    });
    let single_us = fastest_us(harness, || {
        engine.run_layer_planned(planned, &batch[0], false)
    });
    (steps / (lane_us * 1e-6), steps / (single_us * 1e-6))
}

/// One swept layer with its inputs — a zoo benchmark at the configured
/// scale, or the synthetic near-rail row: `(name, model, batch)`, item 0
/// of the batch being the single-item input.
type Subject = (&'static str, CompiledModel, Vec<Vec<Q8p8>>);

/// The row whose rail-free proof fails, so the saturating fallback
/// stays measured: the shape of `plan_prop`'s saturation strategy at a
/// size fixed across `EIE_SCALE` (the verdict is a function of the
/// fixed-seed layer and inputs, not of the scale or the host) — a
/// quarter dense, weights ±(1.5..2.5), inputs ±127 on half the columns.
fn near_rail(config: EieConfig, max_batch: usize) -> Subject {
    const DIM: usize = 1024;
    let mut weights = random_sparse(DIM, DIM, 0.25, DEFAULT_SEED);
    for w in weights.values_mut() {
        *w = (1.5 + w.abs() / 2.0).copysign(*w);
    }
    let item = |i: usize| -> Vec<Q8p8> {
        eie_core::nn::zoo::sample_activations(DIM, 0.5, true, DEFAULT_SEED + i as u64)
            .iter()
            .map(|&a| Q8p8::from_f32(if a == 0.0 { 0.0 } else { 127f32.copysign(a) }))
            .collect()
    };
    let model = CompiledModel::compile_layer(config, &weights);
    ("near-rail", model, (0..max_batch).map(item).collect())
}

/// The share of a dispatch's entries that take the wrapping path: each
/// block is asked the kernel's own question about the dispatch's
/// activation range, weighted by its entries (every block walks the
/// same live columns).
fn rail_free_share(plan: &LayerPlan, items: &[Vec<Q8p8>]) -> f64 {
    let raws = || items.iter().flatten().map(|a| a.raw());
    let (max, min) = (raws().max().unwrap_or(0), raws().min().unwrap_or(0));
    let proved = plan.blocks().iter().filter(|b| b.rail_free_for(max, min));
    proved.map(|b| b.num_entries()).sum::<usize>() as f64 / plan.total_entries().max(1) as f64
}

/// What one kernel's walk of a batch costs, from the extents of the
/// columns it visits: `(stored entries walked, useful MACs)`.
///
/// A fused walk visits a column once per group of items that share the
/// pass (the whole batch for streaming, one lane block for the plan) if
/// any item of the group is live there; a useful MAC is one real entry
/// times one item's non-zero activation.
fn walk_cost(
    col_stored: &[usize],
    col_real: &[usize],
    batch: &[Vec<Q8p8>],
    group: usize,
) -> (usize, usize) {
    let (mut entries, mut macs) = (0, 0);
    for items in batch.chunks(group) {
        for (j, (&stored, &real)) in col_stored.iter().zip(col_real).enumerate() {
            let live = items.iter().filter(|item| !item[j].is_zero()).count();
            entries += if live > 0 { stored } else { 0 };
            macs += live * real;
        }
    }
    (entries, macs)
}

/// The per-(layer, threads) headline inputs.
struct Headline {
    layer: String,
    threads: usize,
    single_speedup: f64,
    batch: usize,
    batch_speedup: f64,
    /// `(N, ratio)`: per-frame throughput of one lane pass over a batch
    /// of N against N single-item walks, for the swept N up to one full
    /// lane block (below 1: lanes lose — they pad to [`LANE_WIDTH`] and
    /// give up the per-item zero-skip). The dispatcher's crossover.
    lane_over_single: Vec<(usize, f64)>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let started = Instant::now();
    let config = paper_config();
    let harness = if quick {
        TimingHarness {
            min_runs: 2,
            max_runs: 4,
            target_total_us: 1e5,
        }
    } else {
        TimingHarness {
            min_runs: 3,
            max_runs: 9,
            target_total_us: 7e5,
        }
    };
    let available = host_cores();
    // Quick adds 2 threads (where the host has them): CI holds the
    // 2-thread Alex-7 batch-8 cell to ≥ 1.25× the 1-thread one.
    let mut thread_counts = vec![1usize];
    if available > 1 {
        thread_counts.push(if quick { 2 } else { available });
    }
    let benchmarks: &[Benchmark] = if quick {
        &[Benchmark::Alex7]
    } else {
        &[Benchmark::Alex6, Benchmark::Alex7, Benchmark::NtWe]
    };
    let batches: &[usize] = if quick {
        &[1, 8]
    } else {
        &[1, 2, 3, 4, 8, 16, 32]
    };
    let max_batch = *batches.last().expect("batch sweep is non-empty");
    const KERNELS: [&str; 2] = ["streaming", "plan"];

    let mut table = TextTable::new(
        format!(
            "Kernel sweep: streaming vs plan (lanes: {}), scale 1/{}, EIE = {}",
            lane_isa(),
            scale_divisor(),
            config
        ),
        &[
            "layer",
            "threads",
            "mode",
            "kernel",
            "µs/frame",
            "frames/s",
            "speedup",
            "B/entry",
            "GB/s",
            "GMAC/s",
            "rail-free",
            "roof",
        ],
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut headline: Option<Headline> = None;

    let zoo = benchmarks.iter().map(|&benchmark| -> Subject {
        let layer = layer_at_scale(benchmark);
        let batch = layer.sample_activation_batch(DEFAULT_SEED, max_batch);
        let batch = batch
            .iter()
            .map(|item| Q8p8::from_f32_slice(item))
            .collect();
        (benchmark.name(), model_at_scale(benchmark, config), batch)
    });
    let subjects: Vec<Subject> = zoo.chain([near_rail(config, max_batch)]).collect();

    // The roofs, before any cell: the stream probe reads as many bytes
    // as the largest swept plan holds.
    let plan_bytes = |(_, model, _): &Subject| model.plan(0).resident_bytes();
    let largest_plan = subjects.iter().map(plan_bytes).max().unwrap_or(0);
    let stream_roof = roof_stream_gbps(&harness, largest_plan);
    let (lane_roof, single_roof) = roof_steps_per_s(&harness, config);
    println!(
        "roofs: stream {stream_roof:.2} GB/s over {largest_plan} B, lane step {:.2} G/s ({}), \
         single step {:.2} G/s",
        lane_roof / 1e9,
        lane_isa(),
        single_roof / 1e9
    );

    for (name, model, batch) in &subjects {
        let (name, batch, acts) = (*name, batch, &batch[0]);
        let enc = model.layer(0);
        let (rows, cols) = (enc.rows(), enc.cols());
        // What each kernel walks: stored entries per column, and the
        // entry stream's resident bytes.
        let col_real: Vec<usize> = (0..cols)
            .map(|j| model.plan(0).blocks().iter().map(|b| b.col(j).len()).sum())
            .collect();
        let col_stored: Vec<usize> = (0..cols)
            .map(|j| enc.slices().iter().map(|s| s.col_entries(j).len()).sum())
            .collect();
        let stream_bytes: usize = enc
            .slices()
            .iter()
            .map(|s| size_of_val(s.entries()) + size_of_val(s.col_ptr()))
            .sum();

        // Per thread count, the plan a server with that many kernel
        // threads shares between its workers — cut once for the
        // fan-out, walked as is, no engine-private re-block — and the
        // two kernels' engines.
        let served: Vec<CompiledModel> = thread_counts
            .iter()
            .map(|&threads| {
                let mut cut = model.clone();
                cut.cut_plans(threads);
                cut
            })
            .collect();
        let setups: Vec<(usize, PlannedLayer<'_>, [NativeCpu; 2])> = thread_counts
            .iter()
            .zip(&served)
            .map(|(&threads, cut)| {
                let plan = NativeCpu::with_threads(threads);
                (
                    threads,
                    cut.planned_layer(0),
                    [plan.clone().without_plans(), plan],
                )
            })
            .collect();
        // Warm every engine and refuse to record perf of wrong answers:
        // both kernels must agree bit-exactly with the functional golden
        // at batch 1 and at the largest swept batch (covering the lane
        // kernel's padded tail blocks).
        let golden = Functional::new();
        let want = golden.run_layer(enc, acts, false).outputs;
        let want_b = golden.run_layer_batch(enc, batch, false);
        for (threads, planned, engines) in &setups {
            for (kernel, engine) in KERNELS.iter().zip(engines) {
                assert!(
                    engine.run_layer_planned(*planned, acts, false).outputs == want,
                    "{name}: single-item {kernel} kernel diverged"
                );
                let runs = engine.run_layer_batch_planned(*planned, batch, false);
                for i in 0..max_batch {
                    assert!(
                        runs[i].outputs == want_b[i].outputs,
                        "{name}: batch item {i} diverged on the {kernel} kernel"
                    );
                }
            }
            assert_eq!(
                engines[1].plan_builds(),
                0,
                "{name}: the shared plan was re-blocked"
            );
            println!(
                "verified: streaming/plan bit-exact against the functional golden on {} \
                 (single + batch {max_batch}, {threads}t)",
                name
            );
        }

        // µs per frame by [setup][batch][kernel]. A neighbour holding a
        // core for a second skews whichever cells it lands on, so each
        // batch's thread × kernel cells are measured in interleaved
        // passes and keep their best: every cell gets a shot at every
        // noise window, including those of the cells its ratios are
        // taken against.
        const PASSES: usize = 3;
        let mut us = vec![vec![[f64::INFINITY; KERNELS.len()]; batches.len()]; setups.len()];
        for (bi, &b) in batches.iter().enumerate() {
            for _ in 0..PASSES {
                for (si, (_, planned, engines)) in setups.iter().enumerate() {
                    for (k, engine) in engines.iter().enumerate() {
                        let pass = if b == 1 {
                            harness.measure_us(|| engine.run_layer_planned(*planned, acts, false))
                        } else {
                            harness.measure_us(|| {
                                engine.run_layer_batch_planned(*planned, &batch[..b], false)
                            }) / b as f64
                        };
                        us[si][bi][k] = us[si][bi][k].min(pass);
                    }
                }
            }
        }

        for (si, &(threads, planned, _)) in setups.iter().enumerate() {
            let layer_plan = planned.plan.expect("a cut model's layer carries its plan");
            let walked = [
                (stream_bytes, size_of::<Entry>(), &col_stored),
                (
                    layer_plan.resident_bytes(),
                    size_of::<PlanEntry>(),
                    &col_real,
                ),
            ];
            // fps by [batch index][kernel index] for the speedup math.
            let mut fps = vec![[0.0f64; KERNELS.len()]; batches.len()];
            for (bi, &b) in batches.iter().enumerate() {
                let mode = if b == 1 {
                    "single".to_string()
                } else {
                    format!("batch{b}")
                };
                for (k, kernel) in KERNELS.iter().enumerate() {
                    let us = us[si][bi][k];
                    fps[bi][k] = 1e6 / us;
                    // The streaming kernel fuses the whole batch into
                    // one pass; the plan walks once per lane block (a
                    // single item is its own pass either way).
                    let items = if b == 1 {
                        std::slice::from_ref(acts)
                    } else {
                        &batch[..b]
                    };
                    let group = if k == 0 { b } else { LANE_WIDTH };
                    let (resident, entry_bytes, extents) = walked[k];
                    let (entries, macs) = walk_cost(extents, &col_real, items, group);
                    let bytes_touched = (entries * entry_bytes) as f64 / b as f64;
                    let bytes_per_entry = resident as f64 / layer_plan.total_entries() as f64;
                    let gbps = bytes_touched / (us * 1e3);
                    let gmacs = macs as f64 / b as f64 / (us * 1e3);
                    let (rail_free_share, roof_share) = if k == 0 {
                        (0.0, 0.0)
                    } else {
                        let steps_per_s = entries as f64 / (us * b as f64 * 1e-6);
                        // The step roofs are one thread's; blocks fan
                        // out over threads, so a cell is placed
                        // against that many.
                        let step_roof =
                            threads as f64 * if b == 1 { single_roof } else { lane_roof };
                        (
                            rail_free_share(layer_plan, items),
                            (gbps / stream_roof).max(steps_per_s / step_roof),
                        )
                    };
                    cells.push(Cell {
                        layer: name,
                        rows,
                        cols,
                        pes: config.num_pes,
                        threads,
                        batch: b,
                        kernel,
                        us_per_frame: us,
                        frames_per_second: fps[bi][k],
                        plan_bytes: resident,
                        bytes_per_entry,
                        bytes_touched,
                        gbps,
                        gmacs,
                        rail_free_share,
                        roof_share,
                    });
                    table.row(vec![
                        name.into(),
                        threads.to_string(),
                        mode.clone(),
                        (*kernel).into(),
                        f(us, 1),
                        f(fps[bi][k], 0),
                        if k == 0 {
                            "-".into()
                        } else {
                            x(fps[bi][k] / fps[bi][0])
                        },
                        f(bytes_per_entry, 2),
                        f(gbps, 2),
                        f(gmacs, 2),
                        f(rail_free_share, 2),
                        if k == 0 { "-".into() } else { f(roof_share, 2) },
                    ]);
                }
            }
            // Headline by the fused-batch win at the reference batch
            // (16, or the largest swept in quick mode): that is the
            // number this kernel exists for.
            let ref_bi = batches
                .iter()
                .position(|&b| b == 16)
                .unwrap_or(batches.len() - 1);
            let lane_over_single: Vec<(usize, f64)> = (1..batches.len())
                .filter(|&bi| batches[bi] <= LANE_WIDTH)
                .map(|bi| (batches[bi], fps[bi][1] / fps[0][1]))
                .collect();
            let candidate = Headline {
                layer: name.to_string(),
                threads,
                single_speedup: fps[0][1] / fps[0][0],
                batch: batches[ref_bi],
                batch_speedup: fps[ref_bi][1] / fps[ref_bi][0],
                lane_over_single,
            };
            // The near-rail row is the fallback's record, not a headline.
            if name != "near-rail"
                && headline
                    .as_ref()
                    .map(|h| candidate.batch_speedup > h.batch_speedup)
                    .unwrap_or(true)
            {
                headline = Some(candidate);
            }
        }
        eprintln!("[{name}] done in {:.1}s", started.elapsed().as_secs_f64());
    }

    let hl = headline.expect("at least one benchmark ran");
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nHeadline: {} fused batch-{} {} plan-over-streaming at {} thread(s) \
         (single-item {}; one lane pass over N single walks per frame: {}; {} lanes). A \
         single item walks one contiguous run of 2-byte entries per live column; a batch \
         applies each entry to a {LANE_WIDTH}-item block as one fixed-width MAC — wrapping \
         where the block's bound proves the dispatch rail-free, saturating otherwise; \
         streaming re-decodes the compressed stream per call.",
        hl.layer,
        hl.batch,
        x(hl.batch_speedup),
        hl.threads,
        x(hl.single_speedup),
        hl.lane_over_single
            .iter()
            .map(|(n, ratio)| format!("N={n} {}", x(*ratio)))
            .collect::<Vec<_>>()
            .join(", "),
        lane_isa(),
    );
    emit("kernel_sweep", &out);

    // ---- machine-readable record ------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"eie-kernel-sweep/v5\",");
    let _ = writeln!(json, "  \"scale_divisor\": {},", scale_divisor());
    let _ = writeln!(json, "  \"pes\": {},", config.num_pes);
    let _ = writeln!(json, "  \"threads_available\": {available},");
    let _ = writeln!(
        json,
        "  \"batches\": [{}],",
        batches
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"lane_width\": {LANE_WIDTH},");
    let _ = writeln!(json, "  \"simd\": \"{}\",", lane_isa());
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"roof_stream_gbps\": {stream_roof:.3},");
    let _ = writeln!(json, "  \"roof_lane_steps_per_s\": {lane_roof:.0},");
    let _ = writeln!(json, "  \"roof_single_steps_per_s\": {single_roof:.0},");
    let _ = writeln!(
        json,
        "  \"headline\": {{\"layer\": \"{}\", \"threads\": {}, \"batch\": {}, \
         \"single_item_speedup\": {:.3}, \"batch_speedup\": {:.3}{}}},",
        hl.layer,
        hl.threads,
        hl.batch,
        hl.single_speedup,
        hl.batch_speedup,
        hl.lane_over_single
            .iter()
            .map(|(n, ratio)| format!(", \"lane_b{n}_over_{n}x_single\": {ratio:.3}"))
            .collect::<String>()
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"layer\": \"{}\", \"rows\": {}, \"cols\": {}, \"pes\": {}, \
             \"threads\": {}, \"batch\": {}, \"kernel\": \"{}\", \
             \"us_per_frame\": {:.3}, \"frames_per_second\": {:.1}, \
             \"plan_bytes\": {}, \"bytes_per_entry\": {:.3}, \"bytes_touched\": {:.0}, \
             \"gbps\": {:.3}, \"gmacs\": {:.3}, \"rail_free_share\": {:.3}, \
             \"roof_share\": {:.3}}}",
            c.layer,
            c.rows,
            c.cols,
            c.pes,
            c.threads,
            c.batch,
            c.kernel,
            c.us_per_frame,
            c.frames_per_second,
            c.plan_bytes,
            c.bytes_per_entry,
            c.bytes_touched,
            c.gbps,
            c.gmacs,
            c.rail_free_share,
            c.roof_share,
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    // Only a full-scale, non-quick run may refresh the committed
    // repo-root record; quick and EIE_SCALE'd runs land in results/ so
    // the recorded scale-1 trajectory is never clobbered.
    let path = if quick {
        results_dir().join("kernel_sweep_quick.json")
    } else if scale_divisor() != 1 {
        results_dir().join("kernel_sweep_scaled.json")
    } else {
        std::path::PathBuf::from("BENCH_kernel.json")
    };
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
