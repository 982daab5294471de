//! Property tests of the execution-plan refactor: the plan kernel is a
//! *layout* change, never a numerical one.
//!
//! For random layers, PE counts and batch shapes, the plan walks of
//! `NativeCpu` (single-item and batch-lane vectorized) must produce
//! `Q8p8` outputs bit-identical to the functional golden model — including on
//! saturation-heavy inputs near the `Accum32` limits, where any
//! reordering, dropped-padding, or lane-padding mistake would change
//! which saturating add clamps first, at every lane-remainder batch
//! size (each congruence class mod [`LANE_WIDTH`], at one and at two
//! stripes per lane block, plus multi-block batches), where a
//! tail-block bug would show, and on the block
//! structure's own corners: multi-block layers, block cuts inside a PE
//! slice, empty slices, and clamping rows that straddle a block
//! boundary, across thread fan-outs.
//!
//! The rail-free lanes are held to the same oracle from both sides: the
//! *proof* (`PlanBlock::rail_free_for`, the predicate the kernel itself
//! asks) is checked against an exact `i64` shadow accumulation — it may
//! never hold for a block where any prefix of any row leaves `i32` —
//! and the outputs equal the golden whichever kernel a block took, at
//! the exact boundary of the inequality, on inputs drawn from the `i16`
//! extremes, and when one item of a batch alone breaks the bound.

use std::sync::Arc;

use eie_core::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The functional golden over `batch`, item by item.
fn golden(enc: &EncodedLayer, batch: &[Vec<Q8p8>], relu: bool) -> Vec<BackendRun> {
    Functional::new().run_layer_batch_planned(PlannedLayer::Encoded(enc), batch, relu)
}

/// `enc` walked on `engine` through a plan cut for the engine's
/// threads, built for the call.
fn walk(
    engine: &NativeCpu,
    enc: &EncodedLayer,
    batch: &[Vec<Q8p8>],
    relu: bool,
) -> Vec<BackendRun> {
    let plan = Arc::new(LayerPlan::build_with_blocks(enc, engine.threads()));
    engine.run_layer_batch_planned(PlannedLayer::Plan(&plan), batch, relu)
}

/// Strategy: a compressed layer, a batch of quantized inputs, and a PE
/// count drawn from {1, 2, 3, 4, 8}.
fn arb_case() -> impl Strategy<Value = (EncodedLayer, Vec<Vec<Q8p8>>)> {
    (
        4usize..48,
        4usize..40,
        0.05f64..0.5,
        any::<u64>(),
        prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(8)],
        0.1f64..1.0,
        any::<u64>(),
        // Every batch size through one past two lane widths (each
        // remainder class of the padded tail block, at one stripe per
        // lane block up to LANE_WIDTH items and two above), plus
        // batches of two and three 16-item blocks whose last block is
        // half full (24), one item past half (25) or one item (33).
        prop_oneof![
            17 => 1usize..=2 * LANE_WIDTH + 1,
            1 => Just(24usize),
            1 => Just(25),
            1 => Just(33)
        ],
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
                let enc = compress(&m, CompressConfig::with_pes(pes));
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
                (enc, items)
            },
        )
}

/// Strategy: a layer whose weights and activations sit near the Q8.8
/// rails, so accumulators brush the `Accum32` saturation limits within
/// a few MACs — the inputs where add order is *observable*.
fn arb_saturating_case() -> impl Strategy<Value = (EncodedLayer, Vec<Vec<Q8p8>>)> {
    (
        2usize..24,
        4usize..24,
        any::<u64>(),
        prop_oneof![Just(1usize), Just(2), Just(4)],
        // Lane-remainder batches for the saturation cases too: padded
        // tail lanes must stay no-ops even when real lanes clamp.
        prop_oneof![
            17 => 1usize..=2 * LANE_WIDTH + 1,
            1 => Just(24usize),
            1 => Just(25),
            1 => Just(33)
        ],
    )
        .prop_map(|(rows, cols, seed, pes, batch)| {
            let mut state = seed | 1;
            let mut next = move || {
                // xorshift64: deterministic, dependency-free.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Dense-ish matrix of near-rail weights with mixed signs:
            // every product is ~±120·120, so two same-sign adds already
            // approach the 32-bit accumulator limit.
            let mut triplets = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    if next() % 4 == 0 {
                        continue; // keep some sparsity
                    }
                    let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
                    triplets.push((r, c, sign * (100.0 + (next() % 28) as f32)));
                }
            }
            if triplets.is_empty() {
                triplets.push((0, 0, 127.0));
            }
            let m = CsrMatrix::from_triplets(rows, cols, &triplets);
            let enc = compress(&m, CompressConfig::with_pes(pes));
            let items = (0..batch)
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
            (enc, items)
        })
}

/// The `(largest, smallest)` raw activation of a dispatch, 0 where no
/// activation has that sign — derived here independently of the
/// kernel's schedule passes.
fn act_range(items: &[Vec<Q8p8>]) -> (i16, i16) {
    let raws = || items.iter().flatten().map(|a| a.raw());
    (
        raws().max().unwrap_or(0).max(0),
        raws().min().unwrap_or(0).min(0),
    )
}

/// Checks the rail-free proof of every block of `plan` on `items`
/// against an exact `i64` shadow accumulation (columns ascending, as
/// every kernel visits them): a block the predicate holds for must not
/// have a single prefix of a single row outside `i32`, nor — the
/// order-free form the bound is derived in — positive or negative
/// products summing past a rail. Returns per block `(proved, clamps)`.
fn check_proof(plan: &LayerPlan, items: &[Vec<Q8p8>]) -> Vec<(bool, bool)> {
    let (max, min) = act_range(items);
    let fits = |v: i64| i32::try_from(v).is_ok();
    plan.blocks()
        .iter()
        .map(|block| {
            let proved = block.rail_free_for(max, min);
            let mut clamps = false;
            for item in items {
                let mut sums = vec![(0i64, 0i64, 0i64); block.accumulators()];
                for (j, a) in item.iter().enumerate() {
                    for e in block.col(j) {
                        let product = plan.lut()[e.code()] as i64 * a.raw() as i64;
                        let (prefix, pos, neg) = &mut sums[e.accumulator()];
                        *prefix += product;
                        *pos += product.max(0);
                        *neg += product.min(0);
                        clamps |= !fits(*prefix);
                        assert!(
                            !proved || (fits(*prefix) && fits(*pos) && fits(*neg)),
                            "proved rail-free, yet the exact sum leaves i32 at column {j}"
                        );
                    }
                }
            }
            (proved, clamps)
        })
        .collect()
}

/// Asserts plan NativeCpu == functional golden, item by item, single
/// and batched (the lane kernel), both writeback modes.
fn assert_plan_golden_agree(
    enc: &EncodedLayer,
    batch: &[Vec<Q8p8>],
    threads: usize,
) -> Result<(), TestCaseError> {
    let plan = NativeCpu::with_threads(threads);
    for relu in [false, true] {
        let want = golden(enc, &batch[..1], relu).remove(0);
        let p = walk(&plan, enc, &batch[..1], relu).remove(0);
        prop_assert_eq!(
            &p.outputs,
            &want.outputs,
            "plan single diverged from golden (relu={}, {} threads)",
            relu,
            threads
        );
        let want_b = golden(enc, batch, relu);
        let p_b = walk(&plan, enc, batch, relu);
        for i in 0..batch.len() {
            prop_assert_eq!(
                &p_b[i].outputs,
                &want_b[i].outputs,
                "lane batch item {} of {} diverged (relu={}, {} threads)",
                i,
                batch.len(),
                relu,
                threads
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random layers × PE counts × batch shapes: the plan kernel and
    /// the golden model are bit-identical.
    #[test]
    fn plan_and_golden_bit_exact((enc, batch) in arb_case(), threads in 1usize..5) {
        assert_plan_golden_agree(&enc, &batch, threads)?;
    }

    /// Saturation-heavy inputs near the `Accum32` rails: the add-order
    /// invariant survives plan lowering (padding drops, pre-multiplied
    /// weights, pool splitting) exactly.
    #[test]
    fn saturating_inputs_pin_the_add_order((enc, batch) in arb_saturating_case(), threads in 1usize..4) {
        // The case is only interesting if something actually clamps;
        // near-rail products guarantee plenty of saturated outputs.
        assert_plan_golden_agree(&enc, &batch, threads)?;
        let out = golden(&enc, &batch[..1], false).remove(0).outputs;
        prop_assert!(
            out.iter().any(|v| *v == Q8p8::MAX || *v == Q8p8::MIN),
            "saturation strategy produced no clamped outputs"
        );
        // The blocks the engine walked (one per thread): where an
        // accumulator clamps the proof must have failed, so these
        // inputs keep exercising the saturating kernel on purpose.
        let plan = LayerPlan::build_with_blocks(&enc, threads);
        for (b, (proved, clamps)) in check_proof(&plan, &batch).into_iter().enumerate() {
            prop_assert!(!(proved && clamps), "block {} clamps yet was proved rail-free", b);
        }
    }

    /// Plans passed explicitly through the model's plan slots (the
    /// serving path: `plan` → `PlannedLayer::Plan` →
    /// `run_layer_batch_planned`) agree with the golden model.
    #[test]
    fn model_plan_cache_path_bit_exact((enc, batch) in arb_case()) {
        let config = EieConfig::default().with_num_pes(enc.num_pes());
        let model = CompiledModel::from_layers(config, vec![enc.clone()]);
        // One thread: the model's shared plan is walked as is, on every
        // thread the engine has.
        let backend = NativeCpu::with_threads(1);
        prop_assert_eq!(model.plans_built(), 0);
        let planned = PlannedLayer::Plan(model.plan(0));
        prop_assert_eq!(model.plans_built(), 1);
        let via_model = backend.run_layer_batch_planned(planned, &batch, false);
        let plan = model.plan(0);
        prop_assert!(plan.blocks().len() >= backend.threads().min(plan.rows()));
        let golden = golden(&enc, &batch, false);
        for i in 0..batch.len() {
            prop_assert_eq!(
                &via_model[i].outputs, &golden[i].outputs,
                "model-plan path diverged at item {}", i
            );
        }
    }
}

/// A layer, a PE count and a batch that exercise the block structure:
/// tall enough for several blocks, or one slice taller than a block, or
/// more PEs than rows.
fn block_case(rows: usize, cols: usize, pes: usize, density: f64, batch: usize) -> Case {
    let enc = compress(
        &random_sparse(rows, cols, density, 0xB10C),
        CompressConfig::with_pes(pes),
    );
    let items = (0..batch as u64)
        .map(|i| {
            Q8p8::from_f32_slice(&eie_core::nn::zoo::sample_activations(
                cols,
                0.6,
                true,
                40 + i,
            ))
        })
        .collect();
    (enc, items)
}

type Case = (EncodedLayer, Vec<Vec<Q8p8>>);

/// Asserts every thread fan-out of the plan engine — over a bare layer
/// and over a model's shared plan cut for it — reproduces the
/// functional golden, single and batched.
fn assert_fan_outs_match_golden(enc: &EncodedLayer, batch: &[Vec<Q8p8>], relu: bool) {
    let golden = golden(enc, batch, relu);
    let config = EieConfig::default().with_num_pes(enc.num_pes());
    let mut model = CompiledModel::from_layers(config, vec![enc.clone()]);
    for threads in [1usize, 2, 3] {
        let engine = NativeCpu::with_threads(threads);
        let own = walk(&engine, enc, batch, relu);
        model.cut_plans(threads);
        let planned = PlannedLayer::Plan(model.plan(0));
        let shared = engine.run_layer_batch_planned(planned, batch, relu);
        let solo = engine
            .run_layer_batch_planned(planned, &batch[..1], relu)
            .remove(0);
        assert_eq!(solo.outputs, golden[0].outputs, "solo {threads}t");
        for i in 0..batch.len() {
            assert_eq!(own[i].outputs, golden[i].outputs, "item {i} {threads}t");
            assert_eq!(shared[i].outputs, golden[i].outputs, "item {i} {threads}t");
        }
        // The shared plan was walked at full fan-out.
        let plan = model.plan(0);
        assert!(
            plan.blocks().len() >= threads.min(plan.rows()),
            "{threads}t"
        );
        assert_eq!(model.plans_built(), 1);
    }
}

#[test]
fn block_corners_match_golden_across_fan_outs_and_lane_remainders() {
    // Multi-block (NT-Wd's 8791 × 64 PEs: three blocks cut inside
    // slices); one slice taller than a block; rows % PEs != 0; more
    // PEs than rows (empty slices).
    let shapes = [
        (8791, 20, 64, 0.02),
        (9000, 10, 2, 0.02),
        (37, 29, 4, 0.3),
        (5, 11, 8, 0.6),
    ];
    for (n, &(rows, cols, pes, density)) in shapes.iter().enumerate() {
        // Lane-remainder batches 1..=9 and 13, spread over the shapes.
        for batch in [1 + n, 5 + n, 9, 13] {
            let (enc, items) = block_case(rows, cols, pes, density, batch);
            assert_fan_outs_match_golden(&enc, &items, batch % 2 == 0);
        }
    }
}

#[test]
fn saturating_rows_straddling_a_block_boundary_clamp_identically() {
    // Two PEs × 4000 local rows. The default plan (two blocks) cuts at
    // accumulator 4000, the PE boundary; a three-way fan-out cuts at
    // 2666 and 5333, inside both slices. The rows either side of every
    // cut carry near-rail weights: every other one same-signed, so it
    // clamps within three columns, its neighbours alternating, so an
    // add-order mistake would move the clamp.
    let (rows, cols, pes) = (8000usize, 12usize, 2usize);
    let hot_rows: Vec<usize> = [2666usize, 4000, 5333]
        .iter()
        .flat_map(|&cut| cut - 2..cut + 2)
        // PE-major accumulator → interleaved row.
        .map(|acc| (acc % 4000) * pes + acc / 4000)
        .collect();
    let mut triplets = Vec::new();
    for (n, &row) in hot_rows.iter().enumerate() {
        for col in 0..cols {
            let sign = if n % 2 == 0 || col % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            triplets.push((row, col, sign * (110.0 + (col % 9) as f32)));
        }
    }
    let m = CsrMatrix::from_triplets(rows, cols, &triplets);
    let enc = compress(&m, CompressConfig::with_pes(pes));
    for batch in [1usize, 7, 9] {
        let items: Vec<Vec<Q8p8>> = (0..batch)
            .map(|i| {
                (0..cols)
                    .map(|c| Q8p8::from_f32(if (c + i) % 5 == 0 { 0.0 } else { 120.0 }))
                    .collect()
            })
            .collect();
        let out = golden(&enc, &items[..1], false).remove(0).outputs;
        assert!(
            hot_rows.iter().step_by(2).all(|&r| out[r] == Q8p8::MAX),
            "same-signed boundary rows must clamp"
        );
        // Every block holding a clamping row stays on the saturating
        // kernel; the blocks between the cuts hold no weights at all
        // and are walked rail-free next to them.
        for min_blocks in [1, 3, 7] {
            let plan = LayerPlan::build_with_blocks(&enc, min_blocks);
            let verdicts = check_proof(&plan, &items);
            assert!(verdicts.iter().any(|&(_, clamps)| clamps));
            assert!(verdicts.iter().all(|&(proved, clamps)| proved != clamps));
        }
        assert_fan_outs_match_golden(&enc, &items, false);
    }
}

/// A one-row, one-PE layer holding exactly these raw Q8.8 weights.
fn one_row_layer(raw_weights: &[i16]) -> EncodedLayer {
    let weights: Vec<f32> = raw_weights.iter().map(|&w| w as f32 / 256.0).collect();
    let mut centroids = weights.clone();
    centroids.sort_by(f32::total_cmp);
    centroids.dedup();
    let cells: Vec<(usize, usize, f32)> = weights
        .iter()
        .enumerate()
        .map(|(c, &w)| (0, c, w))
        .collect();
    encode_with_codebook(
        &CsrMatrix::from_triplets(1, weights.len(), &cells),
        Codebook::from_centroids(&centroids),
        CompressConfig::with_pes(1),
    )
}

#[test]
fn the_bound_is_exact_at_i32_max_and_one_unit_past_it_saturates() {
    // Inputs that attain the bound (every product has the same sign),
    // so the exact sum *is* `P·a⁺ + N·a⁻` (or minus the other end).
    // `(raw weights, raw activations, proved, clamps)`:
    let (full, low) = (i16::MAX, i16::MIN);
    let cases: [(&[i16], &[i16], bool, bool); 5] = [
        // 65537·32767 + 32768·1 = i32::MAX: proved, and it fits.
        (&[full, full, 3, low], &[full, full, full, -1], true, false),
        // 65536·32768 = 2^31, one past the rail: the proof must fail
        // and the saturating kernel clamp like the golden (a wrapping
        // add would come out at the other rail).
        (&[low, low], &[low, low], false, true),
        // The mirrored end: -(65537·32767 + 32768·1) = -i32::MAX.
        (
            &[-full, -full, -3, 16384, 16384],
            &[full, full, full, -1, -1],
            true,
            false,
        ),
        // -2^31 is `i32::MIN` and still fits: the symmetric predicate
        // gives that one unit away (unproved, yet nothing clamps) ...
        (&[full, full, 2], &[low, low, low], false, false),
        // ... and past it the accumulator clamps at the negative rail.
        (&[full, full, 3], &[low, low, low], false, true),
    ];
    for (weights, acts, proved, clamps) in cases {
        let enc = one_row_layer(weights);
        let acts: Vec<Q8p8> = acts.iter().map(|&a| Q8p8::from_raw(a)).collect();
        let plan = LayerPlan::build(&enc);
        let batch: Vec<Vec<Q8p8>> = (0..LANE_WIDTH + 1).map(|_| acts.clone()).collect();
        assert_eq!(
            check_proof(&plan, &batch),
            [(proved, clamps)],
            "{weights:?}"
        );
        // The i64 reference: exact sum, clamped to the accumulator,
        // through the hardware's writeback.
        let sum: i64 = (0..acts.len())
            .flat_map(|j| plan.blocks()[0].col(j).iter().map(move |e| (j, e)))
            .map(|(j, e)| plan.lut()[e.code()] as i64 * acts[j].raw() as i64)
            .sum();
        assert_eq!(i32::try_from(sum).is_err(), clamps);
        let clamped = sum.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
        let want = vec![Accum32::from_raw(clamped).to_fix16::<8>()];
        assert_eq!(want[0], if sum > 0 { Q8p8::MAX } else { Q8p8::MIN });
        let engine = NativeCpu::with_threads(1);
        let solo = walk(&engine, &enc, std::slice::from_ref(&acts), false);
        assert_eq!(solo[0].outputs, want);
        assert_eq!(functional::execute(&enc, &acts, false), want);
        for run in walk(&engine, &enc, &batch, false) {
            assert_eq!(run.outputs, want, "lanes on {weights:?}");
        }
    }
}

#[test]
fn the_proof_is_sound_on_inputs_from_the_i16_extremes() {
    // Random layers of every weight scale × activations of every sign
    // pattern and magnitude up to the i16 extremes (-32768 included):
    // wherever the predicate holds, `check_proof`'s exact shadow never
    // leaves i32; and the outputs equal the golden either way.
    let mut state = 0x005E_ED0F_7A11_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut proved_blocks, mut clamping_blocks) = (0, 0);
    for case in 0..160 {
        let (rows, cols) = (2 + next() as usize % 20, 4 + next() as usize % 30);
        let weight_scale = [1.0f32, 6.0, 25.0, 127.0, 127.0][next() as usize % 5];
        let mut cells = vec![(0, 0, weight_scale)];
        for r in 0..rows {
            for c in 0..cols {
                if next() % 8 < 5 {
                    // Every other group of cases signs whole rows, so
                    // one-signed inputs march straight at a rail.
                    let coin = if case / 4 % 2 == 0 { r as u64 } else { next() };
                    let sign = if coin % 2 == 0 { 1.0 } else { -1.0 };
                    cells.push((
                        r,
                        c,
                        sign * weight_scale * (0.5 + (next() % 64) as f32 / 128.0),
                    ));
                }
            }
        }
        let pes = [1, 2, 4][next() as usize % 3];
        let enc = compress(
            &CsrMatrix::from_triplets(rows, cols, &cells[1..]),
            CompressConfig::with_pes(pes),
        );
        let act_scale = [64i64, 2_000, 12_000, 32_767][next() as usize % 4];
        let batch = [1, 3, LANE_WIDTH, LANE_WIDTH + 1, 2 * LANE_WIDTH + 1][next() as usize % 5];
        let items: Vec<Vec<Q8p8>> = (0..batch)
            .map(|_| {
                (0..cols)
                    .map(|_| {
                        let magnitude = (act_scale * (next() % 256 + 1) as i64 / 256) as i16;
                        Q8p8::from_raw(match (case % 4, next() % 8) {
                            (_, 0 | 1) => 0,
                            (3, 2) => i16::MIN,
                            (3, 3) => i16::MAX,
                            (0, _) => magnitude,  // post-ReLU
                            (1, _) => -magnitude, // all-negative
                            (_, n) => magnitude * if n % 2 == 0 { 1 } else { -1 },
                        })
                    })
                    .collect()
            })
            .collect();
        let fan_out = 1 + next() as usize % 3;
        let plan = LayerPlan::build_with_blocks(&enc, fan_out);
        for (proved, clamps) in check_proof(&plan, &items) {
            proved_blocks += usize::from(proved);
            clamping_blocks += usize::from(clamps);
        }
        // The engine cuts the same blocks (one per thread).
        let engine = NativeCpu::with_threads(fan_out);
        let golden = golden(&enc, &items, false);
        let solo = walk(&engine, &enc, &items[..1], false).remove(0);
        assert_eq!(solo.outputs, golden[0].outputs, "case {case}: single walk");
        for (i, run) in walk(&engine, &enc, &items, false).iter().enumerate() {
            assert_eq!(run.outputs, golden[i].outputs, "case {case}: lane item {i}");
        }
    }
    // Both verdicts are well represented, or the property is vacuous.
    assert!(proved_blocks >= 60, "{proved_blocks} proved blocks");
    assert!(clamping_blocks >= 30, "{clamping_blocks} clamping blocks");
}

#[test]
fn one_hot_item_sends_the_whole_batch_down_the_saturating_path() {
    // Weights near +-100: rail-free for activations up to ~27, which
    // every item but the last respects. The last item's 120s overflow
    // the same-signed rows for real (every other local row of each PE,
    // so every block of every cut below holds one), and alternate on
    // the rest. The bound is taken over the batch, so its lane neighbours
    // — and every other lane block — must take the saturating kernel
    // with it, at every lane remainder and through every cut of the plan.
    let (rows, cols) = (40usize, 12usize);
    let mut cells = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let sign = if r / 4 % 2 == 0 || c % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            cells.push((r, c, sign * (100.0 + (c % 9) as f32)));
        }
    }
    let enc = compress(
        &CsrMatrix::from_triplets(rows, cols, &cells),
        CompressConfig::with_pes(4),
    );
    for batch in (1..=2 * LANE_WIDTH + 1).chain([24, 25, 33]) {
        let mut items: Vec<Vec<Q8p8>> = (0..batch - 1)
            .map(|i| {
                (0..cols)
                    .map(|c| Q8p8::from_f32([0.0, 0.5, -1.0, 1.0][(c + i) % 4]))
                    .collect()
            })
            .collect();
        items.push(vec![Q8p8::from_f32(120.0); cols]);
        let out = golden(&enc, &items[batch - 1..], false).remove(0);
        assert!((0..rows).all(|r| r / 4 % 2 == 1 || out.outputs[r] == Q8p8::MAX));
        for fan_out in [1, 2, 3, 7] {
            let plan = LayerPlan::build_with_blocks(&enc, fan_out);
            let cool = check_proof(&plan, &items[..batch - 1]);
            assert!(cool.iter().all(|&(proved, _)| proved), "{batch}/{fan_out}");
            let hot = check_proof(&plan, &items);
            assert!(hot.iter().all(|&(proved, clamps)| !proved && clamps));
        }
        assert_fan_outs_match_golden(&enc, &items, false);
    }
}
