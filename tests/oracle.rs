//! The differential oracle: on every drawn case, every execution path
//! registered in `support::PATHS` returns the functional golden's words
//! (see `support` for the generator, the golden and the rule that a new
//! path is one `PATHS` entry).
//!
//! Beside it, the properties that are not path agreement draw from the
//! same generator: the rail-free proof against an exact `i64` shadow,
//! the layer-image roundtrip under every codec, the served load's plans
//! against the decoded layers' under every codec and cut, and the
//! served accounting under random fault schedules.

mod support;

use std::sync::Arc;
use std::time::{Duration, Instant};

use eie::prelude::*;
use eie::serve::{FaultPlan, ModelServer, RequestError, ServerConfig, SubmitError, SubmitOptions};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use support::{arb_case, assert_all_paths_agree, cases, Mode};

/// Cases the oracle draws. A path of stride `s` runs on `CASES / s` of
/// them: the server on 12, the network node on 6.
const CASES: usize = 48;

#[test]
fn every_path_agrees_with_the_golden() {
    for (n, case) in cases("oracle", CASES, |_| true).enumerate() {
        assert_all_paths_agree(&case, n);
    }
}

/// Silences the injected panics' default-hook stderr (real panics still
/// print and still fail the test).
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let text = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !text.is_some_and(|s| s.contains("injected")) {
                default(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The rail-free proof (`PlanBlock::rail_free_for`, the predicate
    /// the kernel asks) against an exact `i64` shadow of layer 0, columns
    /// ascending as every kernel visits them: where it holds, no prefix
    /// of any row leaves `i32`, nor do the positive or the negative
    /// products alone (the order-free form the bound is derived in).
    /// Saturating cases clamp, so they keep the saturating kernel busy.
    #[test]
    fn the_rail_free_proof_is_sound_and_saturating_cases_clamp(
        case in arb_case(),
        fan_out in 1usize..=3,
    ) {
        let layer = case.model.layer(0);
        let plan = LayerPlan::build_with_blocks(layer, fan_out);
        let raws = || case.inputs.iter().flatten().map(|a| a.raw());
        let max = raws().max().unwrap_or(0).max(0);
        let min = raws().min().unwrap_or(0).min(0);
        let fits = |v: i64| i32::try_from(v).is_ok();
        for (b, block) in plan.blocks().iter().enumerate() {
            if !block.rail_free_for(max, min) {
                continue;
            }
            for item in &case.inputs {
                let mut sums = vec![(0i64, 0i64, 0i64); block.accumulators()];
                for (j, a) in item.iter().enumerate() {
                    for e in block.col(j) {
                        let product = plan.lut()[e.code()] as i64 * a.raw() as i64;
                        let (prefix, pos, neg) = &mut sums[e.accumulator()];
                        *prefix += product;
                        *pos += product.max(0);
                        *neg += product.min(0);
                        prop_assert!(
                            fits(*prefix) && fits(*pos) && fits(*neg),
                            "block {} proved rail-free, yet the exact sum leaves i32 at column {}",
                            b,
                            j
                        );
                    }
                }
            }
        }
        if case.draw.mode == Mode::Saturating {
            let rail = |v: &Q8p8| *v == Q8p8::MAX || *v == Q8p8::MIN;
            let clamped = |x: &Vec<Q8p8>| functional::execute(layer, x, false).iter().any(rail);
            prop_assert!(case.inputs.iter().any(clamped), "no layer-0 output clamped");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every codec's `encode → decode` preserves each layer exactly,
    /// its size prediction holds, and the generic `decode_any` agrees.
    #[test]
    fn layer_images_roundtrip_under_every_codec(case in arb_case()) {
        for layer in case.model.layers() {
            for codec in WeightCodecKind::ALL {
                let image = codec.codec().encode(layer);
                prop_assert_eq!(image.len(), codec.codec().encoded_bytes(layer), "{}", codec);
                let fail = |e| TestCaseError::fail(format!("{codec} image: {e}"));
                prop_assert_eq!(&codec.codec().decode(&image).map_err(fail)?, layer, "{}", codec);
                prop_assert_eq!(&decode_any(&image).map_err(fail)?, layer, "{}", codec);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The served load's plans are the plans of the decoded layers —
    /// entries, extents, rail-free bounds and LUT — under every codec
    /// and every cut from 1 to 5.
    #[test]
    fn served_load_plans_are_the_decoded_layers_plans(case in arb_case()) {
        for codec in WeightCodecKind::ALL {
            let model = CompiledModel::from_layers(
                case.model.config().with_codec(codec),
                case.model.layers().to_vec(),
            );
            let bytes = model.to_bytes();
            for cut in 1..=5 {
                let served = CompiledModel::load_served(&bytes, BackendKind::NativeCpu(cut))
                    .map_err(|e| TestCaseError::fail(format!("{codec}: {e}")))?;
                prop_assert_eq!(served.plans.len(), model.num_layers());
                for (plan, layer) in served.plans.iter().zip(model.layers()) {
                    let want = LayerPlan::build_with_blocks(layer, cut);
                    prop_assert_eq!(&**plan, &want, "{} cut {}", codec, cut);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random seeded fault schedule (panics and stalls at random
    /// dispatches) and a random deadline mix: every answered request is
    /// bit-exact, every failure is typed, and the books balance,
    /// `accepted = requests + shed + expired + failed`.
    #[test]
    fn random_fault_schedules_stay_bit_exact_or_typed(
        case in arb_case(),
        fault_seed in any::<u64>(),
        workers in 1usize..=2,
        panic_per_mille in 0u32..=300,
        stall_per_mille in 0u32..=200,
        with_deadlines in any::<bool>(),
        restart_budget in 1u32..=8,
    ) {
        quiet_injected_panics();
        let requests = case.requests();
        let plan = Arc::new(FaultPlan::seeded(
            fault_seed,
            4 * requests.len() as u64,
            panic_per_mille,
            stall_per_mille,
            Duration::from_micros(400),
        ));
        let server = ModelServer::start_with_faults(
            case.model.clone(),
            ServerConfig::default()
                .with_workers(workers)
                .with_max_batch(4)
                .with_restart_budget(restart_budget)
                .with_restart_backoff_us(50),
            Some(plan),
        );

        // Submit everything, then wait everything: coalescing and the
        // fault schedule interleave however they like.
        let mut responses = Vec::with_capacity(requests.len());
        let (mut shed, mut expired) = (0u64, 0u64);
        for (i, input) in requests.iter().enumerate() {
            let mut opts = SubmitOptions::default();
            if with_deadlines && i % 3 == 0 {
                // Tight but usually satisfiable: injected stalls expire
                // some, which is the point.
                opts = opts.with_deadline(Instant::now() + Duration::from_millis(2));
            }
            match server.submit_with(input, opts) {
                Ok(response) => responses.push((i, response)),
                Err(SubmitError::Degraded { .. }) => shed += 1,
                Err(SubmitError::DeadlineExceeded) => expired += 1,
                Err(other) => {
                    return Err(TestCaseError::fail(format!("untyped submit failure {other:?}")))
                }
            }
        }
        let (mut answered, mut failed) = (0u64, 0u64);
        for (i, response) in responses {
            match response.wait() {
                Ok(result) => {
                    answered += 1;
                    prop_assert_eq!(&result.outputs, &case.golden[i], "request {}", i);
                }
                Err(RequestError::WorkerFailed { .. }) => failed += 1,
                Err(RequestError::DeadlineExceeded) => expired += 1,
            }
        }

        let stats = server.shutdown();
        prop_assert_eq!(
            (stats.requests, stats.failed, stats.expired, stats.shed),
            (answered, failed, expired, shed)
        );
        prop_assert_eq!(
            stats.accepted,
            stats.requests + stats.shed + stats.expired + stats.failed,
            "accounting invariant violated: {:?}",
            stats.clone()
        );
        prop_assert_eq!(stats.accepted, requests.len() as u64, "each submission dispositioned once");
    }
}
