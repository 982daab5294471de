//! Property-based tests: backend agreement is an invariant, not a
//! coincidence of the unit-test inputs.
//!
//! For random layers, batches and PE counts in {1, 2, 4, 8}, the
//! NativeCpu kernel and the cycle-accurate simulator must each produce
//! `Q8p8` outputs bit-identical to the functional golden model —
//! batched and unbatched, with and without ReLU, at any thread count.

use std::sync::Arc;

use eie_core::prelude::*;
use proptest::prelude::*;

/// Runs `batch` through `backend` in the form its kind walks
/// ([`BackendKind::plan_cut`]): a plan cut for the native kernel's
/// threads, built for the call, or the encoded layer itself.
fn run(
    backend: &dyn Backend,
    cut: Option<usize>,
    enc: &EncodedLayer,
    batch: &[Vec<Q8p8>],
    relu: bool,
) -> Vec<BackendRun> {
    match cut {
        Some(threads) => {
            let plan = Arc::new(LayerPlan::build_with_blocks(enc, threads));
            backend.run_layer_batch_planned(PlannedLayer::Plan(&plan), batch, relu)
        }
        None => backend.run_layer_batch_planned(PlannedLayer::Encoded(enc), batch, relu),
    }
}

/// Strategy: a compressed layer, a batch of quantized inputs, and a PE
/// count drawn from {1, 2, 4, 8}.
fn arb_case() -> impl Strategy<Value = (eie_core::compress::EncodedLayer, Vec<Vec<Q8p8>>, usize)> {
    (
        4usize..48,
        4usize..40,
        0.05f64..0.5,
        any::<u64>(),
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        0.1f64..1.0,
        any::<u64>(),
        1usize..5,
    )
        .prop_map(
            |(rows, cols, density, seed, pes, act_density, act_seed, batch)| {
                // Reroll degenerate all-zero matrices (compress rejects them).
                let mut m = random_sparse(rows, cols, density, seed);
                let mut reroll = seed;
                while m.nnz() == 0 {
                    reroll = reroll.wrapping_add(0x9E37_79B9);
                    m = random_sparse(rows, cols, density.max(0.2), reroll);
                }
                let enc = eie_core::compress::compress(
                    &m,
                    eie_core::compress::CompressConfig::with_pes(pes),
                );
                let items = (0..batch as u64)
                    .map(|i| {
                        Q8p8::from_f32_slice(&eie_core::nn::zoo::sample_activations(
                            cols,
                            act_density,
                            true,
                            act_seed.wrapping_add(i),
                        ))
                    })
                    .collect();
                (enc, items, pes)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unbatched: both non-golden backends match the functional model
    /// bit for bit, for both writeback modes.
    #[test]
    fn backends_bit_exact_unbatched((enc, batch, _pes) in arb_case()) {
        let cycle = CycleAccurate::new(SimConfig::default());
        let native = NativeCpu::with_threads(3);
        let one = &batch[..1];
        for relu in [false, true] {
            let golden = run(&Functional::new(), None, &enc, one, relu).remove(0);
            prop_assert_eq!(
                &run(&cycle, None, &enc, one, relu)[0].outputs,
                &golden.outputs,
                "cycle diverged (relu={})", relu
            );
            prop_assert_eq!(
                &run(&native, Some(3), &enc, one, relu)[0].outputs,
                &golden.outputs,
                "native diverged (relu={})", relu
            );
        }
    }

    /// Batched: whole-batch entry points agree item by item with the
    /// golden model, across thread counts.
    #[test]
    fn backends_bit_exact_batched((enc, batch, _pes) in arb_case(), threads in 1usize..6) {
        let golden = run(&Functional::new(), None, &enc, &batch, false);
        let cycle = run(&CycleAccurate::new(SimConfig::default()), None, &enc, &batch, false);
        let native = run(&NativeCpu::with_threads(threads), Some(threads), &enc, &batch, false);
        prop_assert_eq!(golden.len(), batch.len());
        for i in 0..batch.len() {
            prop_assert_eq!(
                &cycle[i].outputs, &golden[i].outputs,
                "cycle diverged at item {}", i
            );
            prop_assert_eq!(
                &native[i].outputs, &golden[i].outputs,
                "native diverged at item {} ({} threads)", i, threads
            );
        }
    }

    /// The batch dimension is semantically inert: running a batch equals
    /// running its items one at a time, on every backend.
    #[test]
    fn batching_never_changes_outputs((enc, batch, _pes) in arb_case()) {
        let backends: [(Box<dyn Backend>, Option<usize>); 3] = [
            (Box::new(Functional::new()), None),
            (Box::new(CycleAccurate::new(SimConfig::default())), None),
            (Box::new(NativeCpu::with_threads(2)), Some(2)),
        ];
        for (backend, cut) in &backends {
            let batched = run(backend.as_ref(), *cut, &enc, &batch, true);
            for (i, item) in batch.iter().enumerate() {
                let single = run(backend.as_ref(), *cut, &enc, std::slice::from_ref(item), true).remove(0);
                prop_assert_eq!(
                    &batched[i].outputs, &single.outputs,
                    "{} batching changed item {}", backend.name(), i
                );
            }
        }
    }
}
