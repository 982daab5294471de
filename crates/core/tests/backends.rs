//! Cross-backend agreement and performance: the contract of the
//! pluggable-backend refactor.
//!
//! Every backend must produce **bit-identical `Q8p8` outputs** for the
//! same compiled layer and inputs — the cycle model and the native
//! kernel are each checked against the functional golden model on every
//! Table III zoo benchmark. The `--ignored` perf test asserts the point
//! of `NativeCpu`: batched serving at host speed beats the interpreted
//! golden model.

use std::sync::Arc;
use std::time::Instant;

use eie_core::backend::host_cores;
use eie_core::prelude::*;

fn quantize_batch(batch: &[Vec<f32>]) -> Vec<Vec<Q8p8>> {
    batch
        .iter()
        .map(|item| Q8p8::from_f32_slice(item))
        .collect()
}

/// Runs `batch` through `backend` on `enc`, handed the form `kind`'s
/// [`BackendKind::plan_cut`] names: a plan cut for that many threads,
/// built for the call, or the encoded layer itself.
fn run_kind(
    backend: &dyn Backend,
    kind: BackendKind,
    enc: &EncodedLayer,
    batch: &[Vec<Q8p8>],
    relu: bool,
) -> Vec<BackendRun> {
    match kind.plan_cut() {
        Some(threads) => {
            let plan = Arc::new(LayerPlan::build_with_blocks(enc, threads));
            backend.run_layer_batch_planned(PlannedLayer::Plan(&plan), batch, relu)
        }
        None => backend.run_layer_batch_planned(PlannedLayer::Encoded(enc), batch, relu),
    }
}

/// All three backends agree bit-exactly on every zoo benchmark at 4 PEs,
/// batched and unbatched (acceptance criterion of the backend refactor).
#[test]
fn all_backends_bit_exact_on_every_zoo_benchmark_at_4_pes() {
    let config = EieConfig::default().with_num_pes(4);
    for benchmark in Benchmark::ALL {
        let layer = benchmark.generate_scaled(DEFAULT_SEED, 32);
        let enc = config.pipeline().compile_matrix(&layer.weights);
        let batch = quantize_batch(&layer.sample_activation_batch(DEFAULT_SEED, 3));

        let functional = Functional::new();
        let cycle = CycleAccurate::new(config.sim_config());
        let native = NativeCpu::with_threads(4);
        let (encoded, plan) = (
            PlannedLayer::Encoded(&enc),
            Arc::new(LayerPlan::build_with_blocks(&enc, 4)),
        );
        let planned = PlannedLayer::Plan(&plan);

        for relu in [false, true] {
            // Unbatched: each backend on item 0.
            let one = &batch[..1];
            let golden = functional
                .run_layer_batch_planned(encoded, one, relu)
                .remove(0);
            let cyc = cycle.run_layer_batch_planned(encoded, one, relu).remove(0);
            let nat = native.run_layer_batch_planned(planned, one, relu).remove(0);
            assert_eq!(
                cyc.outputs, golden.outputs,
                "{benchmark}: cycle vs functional diverged (relu={relu})"
            );
            assert_eq!(
                nat.outputs, golden.outputs,
                "{benchmark}: native vs functional diverged (relu={relu})"
            );

            // Batched: whole-batch runs item by item.
            let golden_b = functional.run_layer_batch_planned(encoded, &batch, relu);
            let cyc_b = cycle.run_layer_batch_planned(encoded, &batch, relu);
            let nat_b = native.run_layer_batch_planned(planned, &batch, relu);
            for i in 0..batch.len() {
                assert_eq!(
                    cyc_b[i].outputs, golden_b[i].outputs,
                    "{benchmark}: batched cycle diverged at item {i} (relu={relu})"
                );
                assert_eq!(
                    nat_b[i].outputs, golden_b[i].outputs,
                    "{benchmark}: batched native diverged at item {i} (relu={relu})"
                );
            }
        }
    }
}

/// Backends agree through the engine's batched entry points too, and
/// through a multi-layer `CompiledModel`.
#[test]
fn engine_batches_agree_across_backends_through_a_network() {
    let config = EieConfig::default().with_num_pes(4);
    let w1 = random_sparse(64, 48, 0.15, 21);
    let w2 = random_sparse(32, 64, 0.2, 22);
    let model = CompiledModel::compile(config, &[&w1, &w2]);
    let batch: Vec<Vec<f32>> = (0..6)
        .map(|s| eie_core::nn::zoo::sample_activations(48, 0.4, false, 100 + s))
        .collect();
    let reference = model.infer(BackendKind::Functional).submit(&batch);
    for kind in [
        BackendKind::CycleAccurate,
        BackendKind::NativeCpu(1),
        BackendKind::NativeCpu(4),
    ] {
        let result = model.infer(kind).submit(&batch);
        assert_eq!(result.batch_size(), reference.batch_size());
        for i in 0..batch.len() {
            assert_eq!(
                result.outputs(i),
                reference.outputs(i),
                "{kind} diverged at item {i}"
            );
        }
    }
}

/// A small layer and five items for the form contract.
fn contract_case() -> (EieConfig, EncodedLayer, Vec<Vec<Q8p8>>) {
    let config = EieConfig::default().with_num_pes(4);
    let enc = config
        .pipeline()
        .compile_matrix(&random_sparse(40, 24, 0.3, 7));
    let batch = (0..5)
        .map(|s| eie_core::nn::zoo::sample_activations(24, 0.5, false, 30 + s))
        .collect::<Vec<_>>();
    (config, enc, quantize_batch(&batch))
}

/// `plan_cut()` is the one place that decides which form of a layer a
/// backend walks: every kind's backend, handed the form its kind names,
/// returns the functional golden's Q8.8 words at batch 1 and batch 5.
#[test]
fn every_kind_walks_the_form_its_plan_cut_names() {
    let (config, enc, batch) = contract_case();
    let words = |runs: Vec<BackendRun>| -> Vec<Vec<i16>> {
        let raw = |run: BackendRun| run.outputs.iter().map(|v| v.raw()).collect();
        runs.into_iter().map(raw).collect()
    };
    let golden = Functional::new();
    for kind in [
        BackendKind::CycleAccurate,
        BackendKind::Functional,
        BackendKind::NativeCpu(0),
        BackendKind::NativeCpu(1),
        BackendKind::NativeCpu(3),
    ] {
        let backend = kind.instantiate(&config);
        for b in [1, 5] {
            let want = words(golden.run_layer_batch_planned(
                PlannedLayer::Encoded(&enc),
                &batch[..b],
                false,
            ));
            let got = words(run_kind(backend.as_ref(), kind, &enc, &batch[..b], false));
            assert_eq!(got, want, "{kind} at batch {b}");
        }
    }
    assert_eq!(BackendKind::NativeCpu(0).plan_cut(), Some(host_cores()));
    assert_eq!(BackendKind::NativeCpu(3).plan_cut(), Some(3));
    assert_eq!(BackendKind::CycleAccurate.plan_cut(), None);
    assert_eq!(BackendKind::Functional.plan_cut(), None);
}

/// A backend that walks encoded layers refuses a plan, by name.
#[test]
#[should_panic(expected = "this backend walks encoded layers, not plans")]
fn an_encoded_layer_walker_refuses_a_plan() {
    let (config, enc, batch) = contract_case();
    let plan = Arc::new(LayerPlan::build(&enc));
    let backend = BackendKind::Functional.instantiate(&config);
    backend.run_layer_batch_planned(PlannedLayer::Plan(&plan), &batch, false);
}

/// The plan walker refuses an encoded layer, by name: it builds no plan
/// of its own.
#[test]
#[should_panic(expected = "this backend walks plans, not encoded layers")]
fn the_plan_walker_refuses_an_encoded_layer() {
    let (config, enc, batch) = contract_case();
    let backend = BackendKind::NativeCpu(2).instantiate(&config);
    backend.run_layer_batch_planned(PlannedLayer::Encoded(&enc), &batch, false);
}

/// Extracts the message of a caught panic (assert payloads are
/// `String`s; literal panics are `&str`s).
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Malformed activation lengths are rejected at every backend's one
/// entry point — a whole batch, and the once-sneaky batch of one (which
/// used to fall back to a single-item path before any length check ran)
/// — with one identical message. Validation is hoisted, not buried in
/// whichever kernel happens to index first.
#[test]
fn all_backends_reject_bad_activation_lengths_uniformly() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let config = EieConfig::default().with_num_pes(2);
    let enc = config
        .pipeline()
        .compile_matrix(&random_sparse(16, 12, 0.4, 3));
    let good = vec![Q8p8::from_f32(0.5); 12];
    let bad = vec![Q8p8::from_f32(0.5); 11];
    for kind in [
        BackendKind::CycleAccurate,
        BackendKind::Functional,
        BackendKind::NativeCpu(2),
    ] {
        let backend = kind.instantiate(&config);
        let cases: [Box<dyn Fn() + '_>; 2] = [
            Box::new(|| {
                run_kind(
                    backend.as_ref(),
                    kind,
                    &enc,
                    &[good.clone(), bad.clone()],
                    false,
                );
            }),
            Box::new(|| {
                run_kind(
                    backend.as_ref(),
                    kind,
                    &enc,
                    std::slice::from_ref(&bad),
                    false,
                );
            }),
        ];
        for (i, case) in cases.iter().enumerate() {
            let err = catch_unwind(AssertUnwindSafe(case))
                .expect_err(&format!("{kind} accepted malformed input (case {i})"));
            let message = panic_message(err);
            assert!(
                message.contains("activation length mismatch"),
                "{kind} case {i} failed with the wrong message: {message:?}"
            );
        }
    }
}

/// The point of the NativeCpu backend: a batched inference job with ≥4
/// threads beats looping the functional golden model item by item, with
/// a generous margin. Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "wall-clock performance assertion; run explicitly with --ignored (release build)"]
fn native_batch_outpaces_functional_per_item_loop() {
    let config = EieConfig::default().with_num_pes(8);
    let layer = Benchmark::Alex7.generate_scaled(DEFAULT_SEED, 4); // 1024×1024 @ 9%
    let model = CompiledModel::compile_layer(config, &layer.weights);
    let native = model.infer(BackendKind::NativeCpu(4));
    let enc = model.layer(0);
    let batch = layer.sample_activation_batch(DEFAULT_SEED, 64);
    let quantized = quantize_batch(&batch);

    // Warm both paths once.
    let (functional, encoded) = (Functional::new(), PlannedLayer::Encoded(enc));
    let _ = functional.run_layer_batch_planned(encoded, &quantized[..1], false);
    let _ = native.submit(&batch);

    // Best-of-3 per path: robust against scheduler noise on small or
    // loaded machines (a single preemption can double one measurement).
    let mut functional_s = f64::INFINITY;
    let mut golden_outputs = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        golden_outputs = quantized
            .iter()
            .map(|item| {
                let one = std::slice::from_ref(item);
                functional
                    .run_layer_batch_planned(encoded, one, false)
                    .remove(0)
                    .outputs
            })
            .collect();
        functional_s = functional_s.min(start.elapsed().as_secs_f64());
    }

    let mut native_s = f64::INFINITY;
    let mut result = native.submit(&batch);
    native_s = native_s.min(result.time_us() * 1e-6);
    for _ in 0..2 {
        result = native.submit(&batch);
        native_s = native_s.min(result.time_us() * 1e-6);
    }

    for (i, golden) in golden_outputs.iter().enumerate() {
        assert_eq!(result.outputs(i), &golden[..], "outputs diverged at {i}");
    }
    let speedup = functional_s / native_s;
    eprintln!(
        "NativeCpu fused batch: {speedup:.2}× over functional loop \
         (functional {:.1} ms vs native {:.1} ms, batch 64)",
        functional_s * 1e3,
        native_s * 1e3
    );
    // The fused kernel alone wins well over 1.3× on a single core;
    // worker threads multiply that on real machines. The generous margin
    // keeps the test robust on loaded or core-starved CI boxes.
    assert!(
        speedup > 1.3,
        "NativeCpu batch speedup only {speedup:.2}× \
         (functional loop {:.1} ms vs native {:.1} ms)",
        functional_s * 1e3,
        native_s * 1e3
    );
}
