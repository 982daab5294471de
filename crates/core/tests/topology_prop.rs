//! Property tests of the threaded stack dispatch: fanning a layer's
//! plan blocks out over threads is a *scheduling* change, never a
//! numerical one.
//!
//! For random layer stacks, PE counts, thread counts and lane-remainder
//! batches, `NativeCpu::with_threads(t)` over plans cut for `t` threads
//! ([`CompiledModel::cut_plans`], as `ModelServer` cuts them) must
//! produce `Q8p8` outputs bit-identical to the functional golden model —
//! including on saturation-heavy inputs near the `Accum32` rails fed
//! *through* ReLU into a second layer, where any change to a single
//! add's order or a range boundary that splits an accumulator chain
//! would be observable.

use eie_core::prelude::*;
use eie_core::run_stack_planned;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Rerolls until the matrix compresses (all-zero layers are rejected).
fn nonzero_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    let mut m = random_sparse(rows, cols, density, seed);
    let mut reroll = seed;
    while m.nnz() == 0 {
        reroll = reroll.wrapping_add(0x9E37_79B9);
        m = random_sparse(rows, cols, density.max(0.2), reroll);
    }
    m
}

/// Strategy: a 1–3 layer chained stack, a PE count from {1, 2, 4} and a
/// lane-remainder batch.
fn arb_case() -> impl Strategy<Value = (CompiledModel, Vec<Vec<Q8p8>>)> {
    (
        proptest::collection::vec(4usize..28, 2..=4),
        0.1f64..0.5,
        any::<u64>(),
        prop_oneof![Just(1usize), Just(2), Just(4)],
        0.2f64..1.0,
        any::<u64>(),
        // Every remainder class of the lane kernel's tail block, at one
        // and at two stripes per lane block, plus multi-block batches.
        prop_oneof![
            17 => 1usize..=2 * LANE_WIDTH + 1,
            1 => Just(24usize),
            1 => Just(25),
            1 => Just(33)
        ],
    )
        .prop_map(|(dims, density, seed, pes, act_density, act_seed, batch)| {
            let weights: Vec<CsrMatrix> = dims
                .windows(2)
                .enumerate()
                .map(|(i, w)| nonzero_sparse(w[1], w[0], density, seed.wrapping_add(i as u64)))
                .collect();
            let refs: Vec<&CsrMatrix> = weights.iter().collect();
            let model = CompiledModel::compile(EieConfig::default().with_num_pes(pes), &refs);
            let items = (0..batch as u64)
                .map(|i| {
                    Q8p8::from_f32_slice(&eie_core::nn::zoo::sample_activations(
                        dims[0],
                        act_density,
                        true,
                        act_seed.wrapping_add(i),
                    ))
                })
                .collect();
            (model, items)
        })
}

/// Cuts the model's plans for `threads` and asserts the threaded
/// stack equals the functional golden, item by item.
fn assert_threads_agree(
    mut model: CompiledModel,
    batch: &[Vec<Q8p8>],
    threads: usize,
) -> Result<(), TestCaseError> {
    let encoded: Vec<_> = model.layers().iter().map(PlannedLayer::Encoded).collect();
    let golden = run_stack_planned(&Functional::new(), &encoded, batch);
    model.cut_plans(threads);
    let engine = NativeCpu::with_threads(threads);
    let runs = run_stack_planned(&engine, &model.planned_layers(), batch);
    prop_assert_eq!(runs.len(), batch.len());
    for (i, (run, want)) in runs.iter().zip(&golden).enumerate() {
        prop_assert_eq!(
            &run.outputs,
            &want.outputs,
            "threaded stack diverged from golden at item {} ({} threads)",
            i,
            threads
        );
    }
    // The cut plans fit the engine: every walk fanned out over all of
    // its threads.
    for i in 0..model.num_layers() {
        let plan = model.plan(i);
        prop_assert!(plan.blocks().len() >= threads.min(plan.rows()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random stacks × PEs × threads × batch shapes: every thread
    /// count reproduces the golden model bit for bit.
    #[test]
    fn threaded_stacks_are_bit_exact(
        (model, batch) in arb_case(),
        threads in 1usize..=3,
    ) {
        assert_threads_agree(model, &batch, threads)?;
    }

    /// Near-rail weights and activations: layer-0 accumulators clamp,
    /// ReLU gates the clamped values into layer 1, and every thread
    /// count must still agree on every bit — range boundaries may never
    /// split or reorder one item's add chain.
    #[test]
    fn saturating_stacks_pin_the_add_order(
        seed in any::<u64>(),
        pes in prop_oneof![Just(1usize), Just(2), Just(4)],
        batch in prop_oneof![
            17 => 1usize..=2 * LANE_WIDTH + 1,
            1 => Just(24usize),
            1 => Just(25),
            1 => Just(33)
        ],
        threads in 1usize..=3,
    ) {
        saturating_stack(seed, pes, batch, threads)?;
    }
}

/// The saturating stack at the two-stripe boundaries on every fan-out
/// and PE count, deterministically: one short of a full 16-item lane
/// block, full, one past it, and one past two.
#[test]
fn saturating_stacks_pin_the_add_order_around_two_stripe_blocks() {
    for batch in [15, 16, 17, 33] {
        for (pes, threads) in [(1, 1), (2, 2), (4, 3)] {
            let seed = (batch * 131 + pes * 7 + threads) as u64;
            if let Err(e) = saturating_stack(seed, pes, batch, threads) {
                panic!("batch {batch}, {pes} PEs, {threads} threads: {e:?}");
            }
        }
    }
}

/// One near-rail two-layer stack of `batch` items from `seed`, cut for
/// `threads` and checked against the golden model.
fn saturating_stack(
    seed: u64,
    pes: usize,
    batch: usize,
    threads: usize,
) -> Result<(), TestCaseError> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mid, cols) = (12usize, 16usize);
    // Dense-ish near-rail weights with mixed signs: two same-sign
    // products already brush the Accum32 limit.
    let mut stack_weights = Vec::new();
    for (rows, cols) in [(mid, cols), (8, mid)] {
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if next() % 4 == 0 {
                    continue;
                }
                let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
                triplets.push((r, c, sign * (100.0 + (next() % 28) as f32)));
            }
        }
        if triplets.is_empty() {
            triplets.push((0, 0, 127.0));
        }
        stack_weights.push(CsrMatrix::from_triplets(rows, cols, &triplets));
    }
    let refs: Vec<&CsrMatrix> = stack_weights.iter().collect();
    let model = CompiledModel::compile(EieConfig::default().with_num_pes(pes), &refs);
    let items: Vec<Vec<Q8p8>> = (0..batch)
        .map(|_| {
            (0..cols)
                .map(|_| {
                    if next() % 5 == 0 {
                        Q8p8::ZERO
                    } else {
                        let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
                        Q8p8::from_f32(sign * (90.0 + (next() % 38) as f32))
                    }
                })
                .collect()
        })
        .collect();
    // The case is only interesting if layer 0 actually clamps
    // before ReLU feeds it forward.
    let first = Functional::new()
        .run_layer(model.layer(0), &items[0], false)
        .outputs;
    prop_assert!(
        first.iter().any(|v| *v == Q8p8::MAX || *v == Q8p8::MIN),
        "saturation strategy produced no clamped layer-0 outputs"
    );
    assert_threads_agree(model, &items, threads)
}
