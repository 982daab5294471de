//! Kernel sweep: the reproducible perf baseline of the native hot path.
//!
//! Measures layer throughput across a batch-size sweep (1, 2, 3, 4, 8,
//! 16, 32) of `NativeCpu`'s one kernel: the column-major packed
//! [`LayerPlan`] walked on the persistent pool — the single-item walk at
//! batch 1, the batch-lane vectorized walk above it (fixed-width,
//! 32-byte-aligned `[i32; LANE_WIDTH]` MACs, two per entry decode in
//! 16-item lane blocks above `LANE_WIDTH` items; the recorded `simd`
//! field is the instantiation the host dispatched to, `lane_isa()`).
//!
//! Each thread count walks the plan a server with that many kernel
//! threads shares between its workers: the model's plan cut once for
//! the fan-out (`CompiledModel::cut_plans`), asserted to hold a block
//! per thread.
//!
//! Every cell is also priced: the bytes of the structure the kernel
//! walks, the bytes of live columns' runs it touches per frame, the
//! achieved GB/s and GMAC/s, and the share of walked entries that took
//! the rail-free (wrapping) path — from the same public predicate the
//! kernel asks. **Roof probes** run first and put every cell against
//! the host instead of against the last PR: `roof_stream_gbps`
//! (a sequential `u16` read of a plan-sized buffer — the most an entry
//! stream can deliver) and `roof_lane_steps_per_s` /
//! `roof_single_steps_per_s` (the kernel's own rail-free entry step on
//! an L1-resident block of accumulators, through the same dispatcher,
//! as a full lane block and as one item); a cell's `roof_share` is
//! the larger of its GB/s over the stream roof and its entry steps/s
//! over its step roof — whichever wall it is closer to. The zoo layers prove
//! rail-free on their inputs; one synthetic **near-rail** row (dense-ish
//! weights around ±2.0, full-scale mixed-sign inputs) does not, and
//! keeps the saturating fallback's cost on the record. Both walks are
//! asserted bit-exact against the functional golden model — at batch 1
//! and at the largest swept batch — before any number is recorded.
//!
//! Output: a table + story on stdout (and `results/kernel_sweep.txt`),
//! plus the machine-readable **`BENCH_kernel.json`** at the repo root —
//! the recorded perf trajectory (schema `eie-kernel-sweep/v7`,
//! documented in `EXPERIMENTS.md`). Only a full-scale non-quick run
//! touches that file: `--quick` (the CI smoke: one layer, bounded
//! iterations, batches 1, 8 and 16, at 1 and — where the host has them
//! — 2 threads) writes
//! `results/kernel_sweep_quick.json`, and an `EIE_SCALE`'d run writes
//! `results/kernel_sweep_scaled.json`, so the committed scale-1 record
//! is never clobbered.

use std::fmt::Write as _;
use std::hint::black_box;
use std::mem::{size_of, size_of_val};
use std::sync::Arc;
use std::time::Instant;

use eie_bench::*;
use eie_core::backend::{host_cores, lane_block_items};
use eie_core::baselines::TimingHarness;
use eie_core::compress::PlanEntry;

/// One measured cell of the sweep.
struct Cell {
    layer: &'static str,
    rows: usize,
    cols: usize,
    pes: usize,
    threads: usize,
    /// Batch size of the run (1 = single-item path).
    batch: usize,
    us_per_frame: f64,
    frames_per_second: f64,
    /// Resident bytes of the plan the kernel walks.
    plan_bytes: usize,
    /// `plan_bytes` over the layer's real (non-padding) entries.
    bytes_per_entry: f64,
    /// Bytes of the live columns' entry runs walked, per frame.
    bytes_touched: f64,
    gbps: f64,
    gmacs: f64,
    /// Entries walked with wrapping adds ÷ entries walked.
    rail_free_share: f64,
    /// The larger of `gbps` ÷ the stream roof and entry steps/s ÷ the
    /// cell's step roof.
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
    let planned = PlannedLayer::Plan(model.plan(0));
    let steps = plan.total_entries() as f64;
    let lane_us = fastest_us(harness, || {
        engine.run_layer_batch_planned(planned, &batch, false)
    });
    let single_us = fastest_us(harness, || {
        engine.run_layer_batch_planned(planned, &batch[..1], false)
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

/// What the plan walk of a batch costs, from the extents of the
/// columns it visits: `(entries walked, useful MACs)`.
///
/// A walk visits a column once per lane block of the size the dispatch
/// uses (`lane_block_items`; a single item is its own pass) if any item
/// of the block is live there; a useful MAC is one entry times one
/// item's non-zero activation.
fn walk_cost(col_entries: &[usize], batch: &[Vec<Q8p8>], group: usize) -> (usize, usize) {
    let (mut entries, mut macs) = (0, 0);
    for items in batch.chunks(group) {
        for (j, &n) in col_entries.iter().enumerate() {
            let live = items.iter().filter(|item| !item[j].is_zero()).count();
            entries += if live > 0 { n } else { 0 };
            macs += live * n;
        }
    }
    (entries, macs)
}

/// The headline: Alex-7 — the layer both the full and the quick sweep
/// run — at one thread, as ratios of its own cells, which cancel the
/// host's speed.
struct Headline {
    layer: &'static str,
    threads: usize,
    /// `(N, ratio)`: per-frame throughput of one lane pass over a batch
    /// of N against N single-item walks, for the swept N up to one full
    /// lane block (below 1: lanes lose — they pad to [`LANE_WIDTH`] and
    /// give up the per-item zero-skip). The dispatcher's crossover.
    lane_over_single: Vec<(usize, f64)>,
    /// Per-frame throughput of one fused 16-item pass over two 8-item
    /// passes (batch 16 over batch 8), where both are swept: what
    /// decoding each entry once per sixteen items buys.
    fused16_over_2x_b8: Option<f64>,
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
    // 2-thread Alex-7 batch-8 cell to ≥ 1.25× the 1-thread one, and the
    // 1-thread batch-16 cell to ≤ 0.85× batch 8's µs/frame.
    let mut thread_counts = vec![1usize];
    if available > 1 {
        thread_counts.push(if quick { 2 } else { available });
    }
    let benchmarks: &[Benchmark] = if quick {
        &[Benchmark::Alex7]
    } else {
        &[
            Benchmark::Alex6,
            Benchmark::Alex7,
            Benchmark::Alex8,
            Benchmark::NtWe,
        ]
    };
    let batches: &[usize] = if quick {
        &[1, 8, 16]
    } else {
        &[1, 2, 3, 4, 8, 16, 32]
    };
    let max_batch = *batches.last().expect("batch sweep is non-empty");

    let mut table = TextTable::new(
        format!(
            "Kernel sweep: plan walks (lanes: {}), scale 1/{}, EIE = {}",
            lane_isa(),
            scale_divisor(),
            config
        ),
        &[
            "layer",
            "threads",
            "mode",
            "µs/frame",
            "frames/s",
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
        let name = *name;
        let enc = model.layer(0);
        let (rows, cols) = (enc.rows(), enc.cols());
        // What the walk visits: the plan's entries per column.
        let col_entries: Vec<usize> = (0..cols)
            .map(|j| model.plan(0).blocks().iter().map(|b| b.col(j).len()).sum())
            .collect();

        // Per thread count, the plan a server with that many kernel
        // threads shares between its workers — cut once for the
        // fan-out and walked as is — and the engine that walks it.
        let served: Vec<Arc<LayerPlan>> = thread_counts
            .iter()
            .map(|&threads| model.clone().into_plans(threads).remove(0))
            .collect();
        let setups: Vec<(usize, PlannedLayer<'_>, NativeCpu)> = thread_counts
            .iter()
            .zip(&served)
            .map(|(&threads, plan)| {
                let engine = NativeCpu::with_threads(threads);
                (threads, PlannedLayer::Plan(plan), engine)
            })
            .collect();
        // Warm every engine and refuse to record perf of wrong answers:
        // both walks must agree bit-exactly with the functional golden
        // at batch 1 and at the largest swept batch (covering the lane
        // walk's padded tail blocks).
        let want_b =
            Functional::new().run_layer_batch_planned(PlannedLayer::Encoded(enc), batch, false);
        for ((threads, planned, engine), plan) in setups.iter().zip(&served) {
            assert!(
                engine.run_layer_batch_planned(*planned, &batch[..1], false)[0].outputs
                    == want_b[0].outputs,
                "{name}: the single-item walk diverged"
            );
            let runs = engine.run_layer_batch_planned(*planned, batch, false);
            for i in 0..max_batch {
                assert!(
                    runs[i].outputs == want_b[i].outputs,
                    "{name}: batch item {i} diverged on the lane walk"
                );
            }
            assert!(
                plan.blocks().len() >= (*threads).min(plan.rows()),
                "{name}: the shared plan is cut coarser than {threads} threads"
            );
            println!(
                "verified: plan bit-exact against the functional golden on {} \
                 (single + batch {max_batch}, {threads}t)",
                name
            );
        }

        // µs per frame by [setup][batch]. A neighbour holding a core
        // for a second skews whichever cells it lands on, so the batch
        // × thread cells are measured in interleaved passes and keep
        // their best: every cell gets a shot at every noise window,
        // including those of the cells its ratios are taken against
        // (batch 16 against batch 8, 2 threads against 1). The
        // committed record takes three times the passes of the CI
        // smoke: on a shared host a slow phase can outlast five.
        let passes = if quick { 5 } else { 15 };
        let mut us = vec![vec![f64::INFINITY; batches.len()]; setups.len()];
        for _ in 0..passes {
            for (bi, &b) in batches.iter().enumerate() {
                for (si, (_, planned, engine)) in setups.iter().enumerate() {
                    let pass = harness.measure_us(|| {
                        engine.run_layer_batch_planned(*planned, &batch[..b], false)
                    }) / b as f64;
                    us[si][bi] = us[si][bi].min(pass);
                }
            }
        }

        for (si, (&(threads, _, _), layer_plan)) in setups.iter().zip(&served).enumerate() {
            let plan_bytes = layer_plan.resident_bytes();
            let bytes_per_entry = plan_bytes as f64 / layer_plan.total_entries() as f64;
            let fps: Vec<f64> = us[si].iter().map(|us| 1e6 / us).collect();
            for (bi, &b) in batches.iter().enumerate() {
                let mode = if b == 1 {
                    "single".to_string()
                } else {
                    format!("batch{b}")
                };
                let us = us[si][bi];
                let items = &batch[..b];
                let (entries, macs) = walk_cost(&col_entries, items, lane_block_items(b));
                let bytes_touched = (entries * size_of::<PlanEntry>()) as f64 / b as f64;
                let gbps = bytes_touched / (us * 1e3);
                let gmacs = macs as f64 / b as f64 / (us * 1e3);
                let steps_per_s = entries as f64 / (us * b as f64 * 1e-6);
                // The step roofs are one thread's; blocks fan out over
                // threads, so a cell is placed against that many.
                let step_roof = threads as f64 * if b == 1 { single_roof } else { lane_roof };
                let rail_free_share = rail_free_share(layer_plan, items);
                let roof_share = (gbps / stream_roof).max(steps_per_s / step_roof);
                cells.push(Cell {
                    layer: name,
                    rows,
                    cols,
                    pes: config.num_pes,
                    threads,
                    batch: b,
                    us_per_frame: us,
                    frames_per_second: fps[bi],
                    plan_bytes,
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
                    mode,
                    f(us, 1),
                    f(fps[bi], 0),
                    f(bytes_per_entry, 2),
                    f(gbps, 2),
                    f(gmacs, 2),
                    f(rail_free_share, 2),
                    f(roof_share, 2),
                ]);
            }
            if name == Benchmark::Alex7.name() && threads == 1 {
                let plan_fps = |n| batches.iter().position(|&b| b == n).map(|bi| fps[bi]);
                headline = Some(Headline {
                    layer: name,
                    threads,
                    lane_over_single: (1..batches.len())
                        .filter(|&bi| batches[bi] <= LANE_WIDTH)
                        .map(|bi| (batches[bi], fps[bi] / fps[0]))
                        .collect(),
                    fused16_over_2x_b8: plan_fps(16).zip(plan_fps(8)).map(|(f16, f8)| f16 / f8),
                });
            }
        }
        eprintln!("[{name}] done in {:.1}s", started.elapsed().as_secs_f64());
    }

    let hl = headline.expect("Alex-7 is swept at one thread");
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nHeadline: {} at {} thread(s): one lane pass over N single walks per frame: {}; \
         one fused 16-item pass over two 8-item passes: {} ({} lanes). A single item walks \
         one contiguous run of 2-byte entries per live column; a batch applies each entry \
         to a {LANE_WIDTH}-item block as one fixed-width MAC, or above {LANE_WIDTH} items \
         to a 16-item block as two off one decode — wrapping where the block's bound \
         proves the dispatch rail-free, saturating otherwise.",
        hl.layer,
        hl.threads,
        hl.lane_over_single
            .iter()
            .map(|(n, ratio)| format!("N={n} {}", x(*ratio)))
            .collect::<Vec<_>>()
            .join(", "),
        hl.fused16_over_2x_b8.map_or("-".into(), x),
        lane_isa(),
    );
    emit("kernel_sweep", &out);

    // ---- machine-readable record ------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"eie-kernel-sweep/v7\",");
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
        "  \"headline\": {{\"layer\": \"{}\", \"threads\": {}{}{}}},",
        hl.layer,
        hl.threads,
        hl.lane_over_single
            .iter()
            .map(|(n, ratio)| format!(", \"lane_b{n}_over_{n}x_single\": {ratio:.3}"))
            .collect::<String>(),
        hl.fused16_over_2x_b8
            .map(|ratio| format!(", \"fused16_over_2x_b8\": {ratio:.3}"))
            .unwrap_or_default()
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"layer\": \"{}\", \"rows\": {}, \"cols\": {}, \"pes\": {}, \
             \"threads\": {}, \"batch\": {}, \
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
