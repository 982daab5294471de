//! The threaded stack dispatch at the two-stripe lane boundaries:
//! fanning a layer's plan blocks out over threads is a *scheduling*
//! change, never a numerical one. Random stacks, PE counts, thread
//! counts and batches are the workspace oracle's (`tests/oracle.rs`, with
//! drawn stacks alone in the umbrella crate's `tests/topology_prop.rs`);
//! this fixed case pins near-rail stacks fed *through* ReLU into a
//! second layer at the batch sizes where a lane block gains its second
//! stripe, where any change to a single add's order or a range boundary
//! that splits an accumulator chain would be observable.

use eie_core::prelude::*;
use eie_core::run_stack_planned;

/// Cuts the model's plans for `threads` ([`CompiledModel::cut_plans`],
/// as `ModelServer` cuts them) and asserts the threaded stack equals
/// the functional golden, item by item.
fn assert_threads_agree(mut model: CompiledModel, batch: &[Vec<Q8p8>], threads: usize, case: &str) {
    let encoded: Vec<_> = model.layers().iter().map(PlannedLayer::Encoded).collect();
    let golden = run_stack_planned(&Functional::new(), &encoded, batch);
    model.cut_plans(threads);
    let engine = NativeCpu::with_threads(threads);
    let runs = run_stack_planned(&engine, &model.planned_layers(), batch);
    assert_eq!(runs.len(), batch.len());
    for (i, (run, want)) in runs.iter().zip(&golden).enumerate() {
        assert_eq!(run.outputs, want.outputs, "{case}: item {i}");
    }
    // The cut plans fit the engine: every walk fanned out over all of
    // its threads.
    for i in 0..model.num_layers() {
        let plan = model.plan(i);
        assert!(plan.blocks().len() >= threads.min(plan.rows()), "{case}");
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
            saturating_stack(seed, pes, batch, threads);
        }
    }
}

/// One near-rail two-layer stack of `batch` items from `seed`, cut for
/// `threads` and checked against the golden model.
fn saturating_stack(seed: u64, pes: usize, batch: usize, threads: usize) {
    let case = format!("batch {batch}, {pes} PEs, {threads} threads");
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
        .run_layer_batch_planned(PlannedLayer::Encoded(model.layer(0)), &items[..1], false)
        .remove(0)
        .outputs;
    assert!(
        first.iter().any(|v| *v == Q8p8::MAX || *v == Q8p8::MIN),
        "{case}: no clamped layer-0 output"
    );
    assert_threads_agree(model, &items, threads, &case);
}
