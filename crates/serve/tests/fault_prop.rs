//! Worker panics against the resident weights: a quarantined worker
//! respawns onto the plans the server already built, and every backend
//! keeps one resident copy of the weights across the respawn. The
//! random fault-schedule property (panics and stalls at random
//! dispatches, random deadlines, the accounting equation) draws from
//! the workspace oracle's generator in `tests/oracle.rs`.

use std::sync::Arc;
use std::time::Duration;

use eie_core::nn::zoo::{random_sparse, sample_activations};
use eie_core::{BackendKind, CompiledModel, EieConfig};
use eie_serve::{FaultPlan, ModelServer, RequestError, ServerConfig};

/// Silence the injected panics' default-hook stderr (real panics still
/// print and still fail the test).
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("injected"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn model_for(dims: (usize, usize, usize), seed: u64) -> CompiledModel {
    let (input, hidden, output) = dims;
    let mut s = seed;
    let mut w1 = random_sparse(hidden, input, 0.25, s);
    while w1.nnz() == 0 {
        s = s.wrapping_add(0x9E37_79B9);
        w1 = random_sparse(hidden, input, 0.35, s);
    }
    let mut w2 = random_sparse(output, hidden, 0.25, s.wrapping_add(1));
    while w2.nnz() == 0 {
        s = s.wrapping_add(0x9E37_79B9);
        w2 = random_sparse(output, hidden, 0.35, s.wrapping_add(1));
    }
    CompiledModel::compile(EieConfig::default().with_num_pes(4), &[&w1, &w2])
}

/// A quarantined worker respawns onto the plans the server built before
/// it spawned anything: the respawn rebuilds no plan, and the recovered
/// worker answers bit-exactly from the very same plan objects.
#[test]
fn respawn_after_a_panic_rebuilds_no_plan() {
    quiet_injected_panics();
    let model = model_for((16, 24, 8), 7);
    let input = sample_activations(16, 0.4, false, 11);
    let golden = model
        .infer(BackendKind::Functional)
        .submit(std::slice::from_ref(&input));
    let layers = model.num_layers();
    let server = ModelServer::start_with_faults(
        model,
        ServerConfig::default()
            .with_workers(1)
            .with_restart_backoff_us(50),
        Some(Arc::new(FaultPlan::new().panic_on_dispatch(0))),
    );
    assert_eq!(server.plans().len(), layers, "built by start");
    let before: Vec<_> = (0..layers)
        .map(|i| Arc::clone(&server.plans()[i]))
        .collect();

    let failed = server.submit(&input).unwrap().wait();
    assert!(matches!(failed, Err(RequestError::WorkerFailed { .. })));
    let recovered = server.submit(&input).unwrap().wait().expect("respawned");
    assert_eq!(&recovered.outputs[..], golden.outputs(0));

    assert_eq!(server.plans().len(), layers);
    for (i, plan) in before.iter().enumerate() {
        assert!(
            Arc::ptr_eq(plan, &server.plans()[i]),
            "layer {i}'s plan was rebuilt"
        );
    }
    let stats = server.shutdown();
    assert_eq!(
        (stats.worker_restarts, stats.failed, stats.requests),
        (1, 1, 1)
    );
}

/// One resident copy of the weights: a native server keeps the plans
/// it cut at start and frees the encoded layers; a Functional or
/// CycleAccurate server keeps the encoded layers and builds no plan.
/// Every one answers bit-exactly with the functional golden at batch 1
/// and 16, before and after an injected worker panic and respawn, and
/// the respawn leaves the residency as it was.
#[test]
fn a_server_keeps_one_resident_copy_of_the_weights() {
    quiet_injected_panics();
    let model = model_for((16, 24, 8), 9);
    let inputs: Vec<Vec<f32>> = (0..16)
        .map(|i| sample_activations(16, 0.4, false, 30 + i))
        .collect();
    let golden = model.infer(BackendKind::Functional).submit(&inputs);
    for backend in [
        BackendKind::NativeCpu(2),
        BackendKind::Functional,
        BackendKind::CycleAccurate,
    ] {
        // Dispatches 0 and 1 serve batch 1 and 16, dispatch 2 panics,
        // dispatches 3 and 4 serve batch 1 and 16 again. No collection
        // window: a lone request is dispatched at once. The lone
        // dispatches stall instead, and the sixteen are queued behind a
        // stalled one, so they fill the next dispatch together.
        let hold = Duration::from_millis(50);
        let server = ModelServer::start_with_faults(
            model.clone(),
            ServerConfig::default()
                .with_backend(backend)
                .with_workers(1)
                .with_max_wait_us(0)
                .with_restart_backoff_us(50),
            Some(Arc::new(
                FaultPlan::new()
                    .stall_dispatch(0, hold)
                    .panic_on_dispatch(2)
                    .stall_dispatch(3, hold),
            )),
        );
        let assert_resident = |when: &str| {
            if backend == BackendKind::NativeCpu(2) {
                assert!(server.layers().is_empty(), "{when}: layers kept");
                assert_eq!(server.plans().len(), model.num_layers(), "{when}");
                for plan in server.plans() {
                    assert!(plan.blocks().len() >= 2.min(plan.rows()), "{when}: cut");
                }
            } else {
                assert_eq!(server.layers(), model.layers(), "{backend} {when}");
                assert!(server.plans().is_empty(), "{backend} {when}: plan built");
            }
        };
        let assert_serves = |when: &str| {
            let one = server.submit(&inputs[0]).unwrap();
            // The barrier: once the worker has claimed the lone request
            // (and sits out its stalled dispatch), the sixteen queue up.
            while server.pending() > 0 {
                std::thread::yield_now();
            }
            let responses: Vec<_> = inputs.iter().map(|x| server.submit(x).unwrap()).collect();
            let one = one.wait().unwrap();
            assert_eq!((one.coalesced, &one.outputs[..]), (1, golden.outputs(0)));
            for (i, response) in responses.into_iter().enumerate() {
                let result = response.wait().unwrap();
                assert_eq!(result.coalesced, 16, "{backend} {when}: item {i}");
                assert_eq!(&result.outputs[..], golden.outputs(i), "{backend} {when}");
            }
        };
        assert_resident("at start");
        assert_serves("before the panic");
        let failed = server.submit(&inputs[0]).unwrap().wait();
        assert!(matches!(failed, Err(RequestError::WorkerFailed { .. })));
        assert_serves("after the respawn");
        assert_resident("after the respawn");
        let stats = server.shutdown();
        assert_eq!((stats.worker_restarts, stats.failed), (1, 1), "{backend}");
    }
}
