//! Scaling sweep: sharded + pipelined execution vs the single-pool
//! planned baseline.
//!
//! Measures multi-layer batch throughput on the AlexNet classifier head
//! (FC6 → FC7 → FC8, Table III shapes at `EIE_SCALE`) across four axes:
//!
//! * **depth** — stack prefixes FC6, FC6–7, FC6–8 (1, 2, 3 layers),
//! * **batch** — frames per submission,
//! * **shards** — row-shard count inside each `NativeCpu` dispatch
//!   ([`Topology::with_shards`] — contiguous PE ranges, each with its
//!   own worker sub-group),
//! * **threads** — 1 plus every available core; each count walks the
//!   model's plans cut for it, the plans a server with that many kernel
//!   threads shares.
//!
//! Three executors are timed per cell:
//!
//! * **single-pool** — [`run_stack_planned`] on a plain `NativeCpu`:
//!   one worker pool walks every layer over the whole batch (the PR 7
//!   baseline),
//! * **sharded** — the same loop on `NativeCpu::with_shards(S)`, so
//!   each dispatch splits rows by shard before subdividing by thread,
//! * **pipelined** — [`PipelinedStack`] with per-layer stages
//!   (`Topology::with_stages(0)`): each layer owns a stage engine,
//!   `LANE_WIDTH`-sized chunks stream through bounded queues, and
//!   interior layers take the lean chunk path (no per-item latency
//!   bookkeeping or `BackendRun` assembly).
//!
//! Every executor is asserted bit-exact against the single-pool
//! baseline — across **all** shard × stage configurations of the sweep,
//! plus a functional-golden anchor — before any number is recorded.
//!
//! Output: table + story on stdout (and `results/scaling_sweep.txt`),
//! plus the machine-readable **`BENCH_scaling.json`** at the repo root
//! (schema `eie-scaling-sweep/v1`, documented in `EXPERIMENTS.md`).
//! Only a full-scale non-quick run touches that file: `--quick` (the CI
//! smoke: depth {1,3}, batch 8, bounded iterations) writes
//! `results/scaling_sweep_quick.json`, and an `EIE_SCALE`'d run writes
//! `results/scaling_sweep_scaled.json`, so the committed scale-1 record
//! is never clobbered.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use eie_bench::*;
use eie_core::baselines::TimingHarness;
use eie_core::{run_stack_planned, QUEUE_DEPTH};

/// One measured cell of the sweep.
struct Cell {
    depth: usize,
    batch: usize,
    threads: usize,
    shards: usize,
    /// `"single-pool"`, `"sharded"` or `"pipelined"`.
    executor: &'static str,
    /// Pipeline stage count actually run (1 for the pool executors).
    stages: usize,
    us_per_frame: f64,
    frames_per_second: f64,
}

/// The headline comparison: pipelined vs single-pool at full depth.
struct Headline {
    depth: usize,
    batch: usize,
    threads: usize,
    shards: usize,
    baseline_fps: f64,
    pipelined_fps: f64,
}

/// The compiled AlexNet FC6–8 stack at the configured scale, cached as
/// a `.eie` artifact next to the single-layer models.
fn stack_at_scale(config: EieConfig) -> CompiledModel {
    let divisor = scale_divisor();
    let dir = std::env::var("EIE_MODEL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| results_dir().join("models"));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("alexnet_fc_s{divisor}_p{}.eie", config.num_pes));

    if let Ok(model) = CompiledModel::load(&path) {
        if model.config() == &config && model.num_layers() == 3 {
            return model;
        }
    }
    let fc6 = layer_at_scale(Benchmark::Alex6);
    let fc7 = layer_at_scale(Benchmark::Alex7);
    let fc8 = layer_at_scale(Benchmark::Alex8);
    let model = CompiledModel::compile(config, &[&fc6.weights, &fc7.weights, &fc8.weights])
        .with_name(format!("AlexNet FC6-8 1/{divisor}"));
    if let Err(e) = model.save(&path) {
        eprintln!("warning: could not cache model at {}: {e}", path.display());
    } else {
        eprintln!("[cached {}]", path.display());
    }
    model
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
    let available = NativeCpu::new().threads();
    let mut thread_counts = vec![1usize];
    if available > 1 && !quick {
        thread_counts.push(available);
    }
    let depths: &[usize] = if quick { &[1, 3] } else { &[1, 2, 3] };
    let batches: &[usize] = if quick { &[8] } else { &[8, 16, 32] };
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let max_batch = *batches.last().expect("batch sweep is non-empty");
    let max_depth = *depths.last().expect("depth sweep is non-empty");

    // Each thread count walks the plans a server with that many kernel
    // threads shares between its workers: cut once for the fan-out
    // (`CompiledModel::cut_plans`). A shard count above it re-blocks
    // inside its engine, as it would behind a server.
    let model = stack_at_scale(config);
    let served: Vec<CompiledModel> = thread_counts
        .iter()
        .map(|&threads| {
            let mut cut = model.clone();
            cut.cut_plans(threads);
            cut
        })
        .collect();
    let layers: Vec<Vec<PlannedLayer<'_>>> = served.iter().map(|m| m.planned_layers()).collect();
    let fc6 = layer_at_scale(Benchmark::Alex6);
    let batch: Vec<Vec<Q8p8>> = fc6
        .sample_activation_batch(DEFAULT_SEED, max_batch)
        .iter()
        .map(|item| Q8p8::from_f32_slice(item))
        .collect();

    let mut table = TextTable::new(
        format!(
            "Scaling sweep: single-pool vs sharded vs pipelined (lanes: {}), scale 1/{}, EIE = {}",
            lane_isa(),
            scale_divisor(),
            config
        ),
        &[
            "depth",
            "batch",
            "threads",
            "shards",
            "executor",
            "stages",
            "µs/frame",
            "frames/s",
            "speedup",
        ],
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut headline: Option<Headline> = None;

    for &depth in depths {
        let stack_for = |ti: usize| &layers[ti][..depth];
        let stack = stack_for(0);

        // ---- verify before measuring --------------------------------
        // The single-pool planned path is the reference; every sharded
        // and pipelined configuration of this sweep must reproduce its
        // bits exactly, and the reference itself is anchored to the
        // functional golden model on a sub-batch.
        let reference = NativeCpu::with_threads(1);
        let golden: Vec<Vec<Q8p8>> = run_stack_planned(&reference, stack, &batch)
            .into_iter()
            .map(|run| run.outputs)
            .collect();
        let anchor = batch.len().min(3);
        let functional: Vec<Vec<Q8p8>> = run_stack_planned(&Functional, stack, &batch[..anchor])
            .into_iter()
            .map(|run| run.outputs)
            .collect();
        assert_eq!(
            functional,
            golden[..anchor],
            "depth {depth}: planned baseline diverged from the functional golden model"
        );
        let stage_counts = [1usize, 0, depth.min(2)];
        for (ti, &threads) in thread_counts.iter().enumerate() {
            let stack = stack_for(ti);
            for &shards in shard_counts {
                let sharded = NativeCpu::with_threads(threads).with_shards(shards);
                let outputs: Vec<Vec<Q8p8>> = run_stack_planned(&sharded, stack, &batch)
                    .into_iter()
                    .map(|run| run.outputs)
                    .collect();
                assert_eq!(
                    outputs, golden,
                    "depth {depth}: sharded run ({shards} shards, {threads}t) diverged"
                );
                for &stages in &stage_counts {
                    let topology = Topology::single().with_shards(shards).with_stages(stages);
                    let run = PipelinedStack::new(stack, &topology, threads).run(&batch);
                    assert_eq!(
                        run.outputs, golden,
                        "depth {depth}: pipelined run ({topology}, {threads}t) diverged"
                    );
                }
            }
        }
        println!(
            "verified: sharded+pipelined bit-exact vs single-pool + functional golden \
             on alexnet-fc depth {depth} (shards {shard_counts:?}, stages {stage_counts:?}, \
             batch {max_batch})"
        );

        // ---- measure ------------------------------------------------
        // The container is a shared box: a slow scheduling window can
        // hit one cell and not another measured seconds later, skewing
        // any cross-cell ratio. So for each (threads, batch) the whole
        // executor × shard matrix is measured in `REPS` interleaved
        // passes and each cell keeps its best pass — every cell gets a
        // shot at every noise window, including the ones its ratios
        // are computed against.
        const REPS: usize = 3;
        for (ti, &threads) in thread_counts.iter().enumerate() {
            let stack = stack_for(ti);
            for &b in batches {
                let frames = &batch[..b];
                let pools: Vec<(usize, NativeCpu)> = shard_counts
                    .iter()
                    .map(|&s| (s, NativeCpu::with_threads(threads).with_shards(s)))
                    .collect();
                let stacks: Vec<(usize, usize, PipelinedStack<'_>)> = shard_counts
                    .iter()
                    .map(|&s| {
                        let topology = Topology::single().with_shards(s).with_stages(0);
                        let stages = topology.stages_for(depth);
                        (s, stages, PipelinedStack::new(stack, &topology, threads))
                    })
                    .collect();
                let mut pool_us = vec![f64::INFINITY; pools.len()];
                let mut piped_us = vec![f64::INFINITY; stacks.len()];
                for _ in 0..REPS {
                    for (i, (_, pool)) in pools.iter().enumerate() {
                        pool_us[i] = pool_us[i].min(
                            harness.measure_us(|| run_stack_planned(pool, stack, frames))
                                / b as f64,
                        );
                        let (_, _, stack_engine) = &stacks[i];
                        piped_us[i] = piped_us[i]
                            .min(harness.measure_us(|| stack_engine.run(frames)) / b as f64);
                    }
                }
                let baseline_fps = 1e6 / pool_us[0];
                for i in 0..pools.len() {
                    let (shards, stages) = (stacks[i].0, stacks[i].1);
                    let executor = if shards == 1 {
                        "single-pool"
                    } else {
                        "sharded"
                    };
                    let us = pool_us[i];
                    let fps = 1e6 / us;
                    cells.push(Cell {
                        depth,
                        batch: b,
                        threads,
                        shards,
                        executor,
                        stages: 1,
                        us_per_frame: us,
                        frames_per_second: fps,
                    });
                    table.row(vec![
                        depth.to_string(),
                        b.to_string(),
                        threads.to_string(),
                        shards.to_string(),
                        executor.into(),
                        "1".into(),
                        f(us, 1),
                        f(fps, 0),
                        if shards == 1 {
                            "-".into()
                        } else {
                            x(fps / baseline_fps)
                        },
                    ]);

                    let us = piped_us[i];
                    let fps = 1e6 / us;
                    cells.push(Cell {
                        depth,
                        batch: b,
                        threads,
                        shards,
                        executor: "pipelined",
                        stages,
                        us_per_frame: us,
                        frames_per_second: fps,
                    });
                    table.row(vec![
                        depth.to_string(),
                        b.to_string(),
                        threads.to_string(),
                        shards.to_string(),
                        "pipelined".into(),
                        stages.to_string(),
                        f(us, 1),
                        f(fps, 0),
                        x(fps / baseline_fps),
                    ]);
                    // Headline: the best pipelined-over-single-pool win
                    // at full depth (the configuration this PR exists
                    // for).
                    if depth == max_depth {
                        let candidate = Headline {
                            depth,
                            batch: b,
                            threads,
                            shards,
                            baseline_fps,
                            pipelined_fps: fps,
                        };
                        if headline
                            .as_ref()
                            .map(|h| {
                                candidate.pipelined_fps / candidate.baseline_fps
                                    > h.pipelined_fps / h.baseline_fps
                            })
                            .unwrap_or(true)
                        {
                            headline = Some(candidate);
                        }
                    }
                }
            }
            eprintln!(
                "[depth {depth} @ {threads}t] done in {:.1}s",
                started.elapsed().as_secs_f64()
            );
        }
    }

    let hl = headline.expect("the full-depth configuration ran");
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nHeadline: pipelined depth-{} batch-{} runs {} vs the single-pool planned \
         baseline ({:.0} vs {:.0} frames/s at {} thread(s), {} shard(s)). Each layer owns \
         a stage engine; chunks stream through bounded queues (depth {}) at a granularity \
         adapted to the host — {} lane-block chunks per stage when spare cores make \
         overlap real, the whole batch inline when they don't — and interior layers take \
         the lean chunk path (no per-item latency assembly). Sharded rows split each \
         dispatch into contiguous PE ranges with their own worker sub-groups — the \
         row-parallel half of the topology knob.",
        hl.depth,
        hl.batch,
        x(hl.pipelined_fps / hl.baseline_fps),
        hl.pipelined_fps,
        hl.baseline_fps,
        hl.threads,
        hl.shards,
        QUEUE_DEPTH,
        LANE_WIDTH,
    );
    emit("scaling_sweep", &out);

    // ---- machine-readable record ------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"eie-scaling-sweep/v1\",");
    let _ = writeln!(json, "  \"scale_divisor\": {},", scale_divisor());
    let _ = writeln!(json, "  \"pes\": {},", config.num_pes);
    let _ = writeln!(json, "  \"threads_available\": {available},");
    let _ = writeln!(json, "  \"lane_width\": {LANE_WIDTH},");
    let _ = writeln!(json, "  \"queue_depth\": {QUEUE_DEPTH},");
    let _ = writeln!(json, "  \"simd\": \"{}\",", lane_isa());
    let _ = writeln!(json, "  \"quick\": {quick},");
    let list = |values: &[usize]| {
        values
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(json, "  \"depths\": [{}],", list(depths));
    let _ = writeln!(json, "  \"batches\": [{}],", list(batches));
    let _ = writeln!(json, "  \"shards\": [{}],", list(shard_counts));
    let _ = writeln!(
        json,
        "  \"headline\": {{\"depth\": {}, \"batch\": {}, \"threads\": {}, \"shards\": {}, \
         \"baseline_fps\": {:.1}, \"pipelined_fps\": {:.1}, \"speedup\": {:.3}}},",
        hl.depth,
        hl.batch,
        hl.threads,
        hl.shards,
        hl.baseline_fps,
        hl.pipelined_fps,
        hl.pipelined_fps / hl.baseline_fps
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"depth\": {}, \"batch\": {}, \"threads\": {}, \"shards\": {}, \
             \"executor\": \"{}\", \"stages\": {}, \"us_per_frame\": {:.3}, \
             \"frames_per_second\": {:.1}}}",
            c.depth,
            c.batch,
            c.threads,
            c.shards,
            c.executor,
            c.stages,
            c.us_per_frame,
            c.frames_per_second,
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    // Only a full-scale, non-quick run may refresh the committed
    // repo-root record; quick and EIE_SCALE'd runs land in results/ so
    // the recorded scale-1 trajectory is never clobbered.
    let path = if quick {
        results_dir().join("scaling_sweep_quick.json")
    } else if scale_divisor() != 1 {
        results_dir().join("scaling_sweep_scaled.json")
    } else {
        PathBuf::from("BENCH_scaling.json")
    };
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
