//! Batch sweep: the EIE-versus-batching story of Table IV, as a
//! measured experiment.
//!
//! The paper's framing (§VI-B): CPUs and GPUs need batching to amortize
//! weight traffic — batch 64 improves their per-frame time substantially
//! — while EIE hits its latency at **batch 1**, where real-time
//! inference actually lives. This binary sweeps the batch dimension
//! through every execution path the engine has:
//!
//! * EIE cycle model: modelled per-frame latency (flat in batch size by
//!   construction — the hardware has no batch dimension to exploit),
//! * NativeCpu: the host-speed serving kernel at batch 1/16/64 (its
//!   fused kernel *does* win throughput from batching, like any CPU),
//! * CPU dense/sparse baselines at batch 1/64 (the paper's MKL rows).
//!
//! `EIE_SCALE=N` shrinks the layers for quick runs.

use eie_bench::*;
use eie_core::baselines::{CpuMeasurement, MvWorkload, TimingHarness};

fn main() {
    let started = std::time::Instant::now();
    let config = paper_config();
    let harness = TimingHarness {
        min_runs: 2,
        max_runs: 7,
        target_total_us: 1e6,
    };
    let native_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut table = TextTable::new(
        format!(
            "Batch sweep: per-frame latency and throughput, scale 1/{}, EIE = {}",
            scale_divisor(),
            config
        ),
        &["layer", "engine", "batch", "µs/frame", "frames/s"],
    );
    let mut story: Vec<String> = Vec::new();

    for benchmark in [Benchmark::Alex7, Benchmark::NtWe] {
        let layer = layer_at_scale(benchmark);
        // Build-once/load-many: compile (or reload) the .eie artifact
        // and serve every engine below from the same loaded model.
        let mut model = model_at_scale(benchmark, config);

        // --- EIE cycle model: modelled latency, batch 1 and a small
        //     batch (per-frame time is flat — no batch dimension in HW).
        let hw = model.infer(BackendKind::CycleAccurate);
        let b1 = hw.submit(&layer.sample_activation_batch(DEFAULT_SEED, 1));
        let b4 = hw.submit(&layer.sample_activation_batch(DEFAULT_SEED, 4));
        for result in [&b1, &b4] {
            table.row(vec![
                benchmark.name().into(),
                "EIE (modelled)".into(),
                result.batch_size().to_string(),
                f(result.mean_latency_us(), 1),
                f(result.frames_per_second(), 0),
            ]);
        }

        // --- NativeCpu serving kernel at batch 1 / 16 / 64 ------------
        // Time the backend on pre-quantized inputs over the model's plan,
        // cut for its threads before any clock starts, so these rows
        // measure the kernel alone, like the CPU baseline rows below do.
        model.cut_plans(native_threads);
        let planned = PlannedLayer::Plan(model.plan(0));
        let native = BackendKind::NativeCpu(native_threads).instantiate(&config);
        let mut native_fps = Vec::new();
        for batch in [1usize, 16, 64] {
            let inputs: Vec<Vec<Q8p8>> = layer
                .sample_activation_batch(DEFAULT_SEED, batch)
                .iter()
                .map(|item| Q8p8::from_f32_slice(item))
                .collect();
            let wall_us =
                harness.measure_us(|| native.run_layer_batch_planned(planned, &inputs, false));
            let fps = batch as f64 / (wall_us * 1e-6);
            native_fps.push(fps);
            table.row(vec![
                benchmark.name().into(),
                format!("NativeCpu ({native_threads}t)"),
                batch.to_string(),
                f(wall_us / batch as f64, 1),
                f(fps, 0),
            ]);
        }

        // --- CPU baselines (paper's MKL rows, our Rust kernels) -------
        let workload = MvWorkload::from_sparse(layer.weights.clone(), DEFAULT_SEED ^ 77);
        let mut cpu_rows = Vec::new();
        for (kernel, batch) in [
            ("dense", 1usize),
            ("dense", 64),
            ("sparse", 1),
            ("sparse", 64),
        ] {
            let run = if kernel == "dense" {
                CpuMeasurement::measure_dense_batch(&workload, batch, &harness)
            } else {
                CpuMeasurement::measure_sparse_batch(&workload, batch, &harness)
            };
            table.row(vec![
                benchmark.name().into(),
                format!("CPU {kernel}"),
                batch.to_string(),
                f(run.per_frame_us(), 1),
                f(run.frames_per_second(), 0),
            ]);
            cpu_rows.push(run);
        }
        drop(workload);

        let dense_batching_gain = cpu_rows[0].per_frame_us() / cpu_rows[1].per_frame_us();
        let native_batching_gain = native_fps[2] / native_fps[0];
        story.push(format!(
            "{}: batch 64 changes CPU dense per-frame time by {:.1}x (our naive kernels; \
             MKL gains more, Table IV) and buys the NativeCpu fused kernel {:.1}x \
             throughput; EIE's modelled per-frame time is flat ({:.1} vs {:.1} µs) — \
             the architecture hits its latency at batch 1.",
            benchmark.name(),
            dense_batching_gain,
            native_batching_gain,
            b1.mean_latency_us(),
            b4.mean_latency_us(),
        ));
        eprintln!(
            "[{}] done in {:.1}s",
            benchmark.name(),
            started.elapsed().as_secs_f64()
        );
    }

    let mut out = table.render();
    out.push('\n');
    for line in &story {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(
        "\nNotes: EIE rows are modelled hardware time (cycle simulator at 800 MHz);\n\
         NativeCpu and CPU rows are measured on this machine. Table IV's point —\n\
         batching rescues CPU throughput but EIE needs no batch to hit its latency —\n\
         falls out of the per-frame columns.\n",
    );
    emit("batch_sweep", &out);
}
