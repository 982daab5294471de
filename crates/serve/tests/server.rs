//! ModelServer behaviour: lifecycle, batching, backpressure, shutdown.

use eie_core::backend::host_cores;
use eie_core::fixed::Q8p8;
use eie_core::nn::zoo::{random_sparse, sample_activations};
use eie_core::{
    run_stack_planned, BackendKind, CompiledModel, EieConfig, Functional, NativeCpu, PlannedLayer,
};
use eie_serve::{ModelServer, ServerConfig, SubmitError};

fn small_model() -> CompiledModel {
    let w1 = random_sparse(48, 32, 0.2, 41);
    let w2 = random_sparse(16, 48, 0.25, 42);
    CompiledModel::compile(EieConfig::default().with_num_pes(4), &[&w1, &w2])
        .with_name("serve test")
}

fn inputs(n: usize) -> Vec<Vec<f32>> {
    (0..n as u64)
        .map(|i| sample_activations(32, 0.5, false, 900 + i))
        .collect()
}

#[test]
fn serves_bit_exact_with_the_functional_golden_model() {
    let model = small_model();
    let golden = model.infer(BackendKind::Functional).submit(&inputs(24));
    let server = ModelServer::start(
        model,
        ServerConfig::default().with_workers(2).with_max_batch(5),
    );
    let responses: Vec<_> = inputs(24)
        .iter()
        .map(|input| server.submit(input).expect("submit"))
        .collect();
    for (i, response) in responses.into_iter().enumerate() {
        let result = response.wait().expect("request failed");
        assert_eq!(
            result.outputs[..],
            *golden.outputs(i),
            "served output diverged from the golden model at request {i}"
        );
        assert!(result.latency_us >= result.queue_us);
        assert!((1..=5).contains(&result.coalesced));
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, 24);
    assert!(
        stats.batches >= 5,
        "24 requests at ≤5/batch need ≥5 batches"
    );
    assert!(stats.max_coalesced <= 5);
    assert!(stats.frames_per_second() > 0.0);
    assert!(stats.p50() <= stats.p99());
    assert!(stats.to_string().contains("frames/s"));
}

#[test]
fn load_serves_a_saved_artifact() {
    let model = small_model();
    let path = std::env::temp_dir().join("eie_serve_load_test.eie");
    model.save(&path).expect("save artifact");
    let golden = model.infer(BackendKind::Functional).submit(&inputs(4));

    let server = ModelServer::load(&path, ServerConfig::default()).expect("load artifact");
    assert_eq!(server.name(), "serve test");
    for (i, input) in inputs(4).iter().enumerate() {
        let result = server.submit(input).unwrap().wait().unwrap();
        assert_eq!(result.outputs[..], *golden.outputs(i));
    }
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rejects_mismatched_input_length() {
    let server = ModelServer::start(small_model(), ServerConfig::default());
    let err = server.submit(&[0.5; 31]).unwrap_err();
    assert_eq!(err, SubmitError::BadInputLength { got: 31, want: 32 });
    assert!(err.to_string().contains("31"));
    let stats = server.shutdown();
    assert_eq!(stats.requests, 0);
    // The documented empty-distribution path: no requests, zero metrics.
    assert_eq!(stats.p99(), 0.0);
    assert_eq!(stats.mean_coalesced(), 0.0);
    assert_eq!(stats.mean_queue_us(), 0.0);
}

#[test]
fn dropping_a_server_without_shutdown_joins_the_workers() {
    // A server abandoned on an early-return path must not leak its
    // worker pool: Drop closes the queue, drains, and joins — so
    // already-accepted requests are still answered.
    let responses: Vec<_> = {
        let server = ModelServer::start(small_model(), ServerConfig::default().with_workers(2));
        inputs(6)
            .iter()
            .map(|input| server.submit(input).expect("submit"))
            .collect()
        // `server` dropped here without shutdown().
    };
    for response in responses {
        assert_eq!(response.wait().unwrap().outputs.len(), 16);
    }
}

#[test]
#[should_panic(expected = "max_batch")]
fn start_rejects_degenerate_config_from_public_fields() {
    // The pub fields can bypass the with_* builder asserts; start()
    // must still refuse a policy that would busy-spin a worker.
    let config = ServerConfig {
        max_batch: 0,
        ..ServerConfig::default()
    };
    let _ = ModelServer::start(small_model(), config);
}

#[test]
fn graceful_shutdown_answers_every_accepted_request() {
    // A modelled backend and one worker keep the queue populated at
    // shutdown; the drain must still answer everything accepted.
    let server = ModelServer::start(
        small_model(),
        ServerConfig::default()
            .with_backend(BackendKind::CycleAccurate)
            .with_workers(1)
            .with_max_batch(2)
            .with_max_wait_us(0),
    );
    let responses: Vec<_> = inputs(12)
        .iter()
        .map(|input| server.submit(input).expect("submit"))
        .collect();
    let stats = server.shutdown();
    assert_eq!(stats.requests, 12, "shutdown drain lost requests");
    for response in responses {
        let result = response.wait().expect("request failed");
        assert_eq!(result.outputs.len(), 16);
    }
}

#[test]
fn try_submit_sheds_load_at_queue_capacity_and_submit_blocks() {
    // One worker holding a long collection window (nothing drains until
    // it expires) in front of a depth-2 queue: the queue must fill and
    // shed within the first few fast pushes.
    let server = ModelServer::start(
        small_model(),
        ServerConfig::default()
            .with_workers(1)
            .with_queue_depth(2)
            .with_max_batch(64)
            .with_max_wait_us(300_000),
    );
    let input = &inputs(1)[0];
    let mut pending = Vec::new();
    let mut shed = None;
    for _ in 0..4 {
        match server.try_submit(input) {
            Ok(r) => pending.push(r),
            Err(e) => {
                shed = Some(e);
                break;
            }
        }
    }
    assert_eq!(shed, Some(SubmitError::QueueFull { depth: 2 }));
    assert_eq!(server.pending(), 2);

    // Backpressured `submit` blocks rather than failing, then completes
    // once the window expires and the worker drains the queue.
    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| {
            server
                .submit(input)
                .expect("backpressured submit completes after the drain")
                .wait()
                .unwrap()
        });
        assert_eq!(blocked.join().unwrap().outputs.len(), 16);
    });
    for r in pending {
        let _ = r.wait();
    }
    let stats = server.shutdown();
    assert!(stats.requests >= 3);
}

#[test]
fn micro_batches_coalesce_under_concurrent_load() {
    // Several producers against one worker with a collection window: at
    // least one micro-batch should coalesce more than one request (the
    // dynamic-batching payoff), without changing any output.
    let model = small_model();
    let golden = model.infer(BackendKind::Functional);
    let server = ModelServer::start(
        model.clone(),
        ServerConfig::default()
            .with_workers(1)
            .with_max_batch(8)
            .with_max_wait_us(20_000),
    );
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let server = &server;
            let golden = &golden;
            scope.spawn(move || {
                for i in 0..6u64 {
                    let input = sample_activations(32, 0.5, false, 1000 + t * 100 + i);
                    let result = server.submit(&input).expect("submit").wait().unwrap();
                    let expected = golden.submit_one(&input);
                    assert_eq!(
                        result.outputs[..],
                        *expected.outputs(0),
                        "coalesced output diverged (producer {t}, request {i})"
                    );
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests, 24);
    assert!(
        stats.max_coalesced > 1,
        "no micro-batch ever coalesced (batches={})",
        stats.batches
    );
    assert!(stats.batches < 24, "every request ran alone");
}

#[test]
fn the_default_kernel_takes_each_workers_share_of_the_cores() {
    let cores = host_cores();
    for workers in [1, 2, 3] {
        let server =
            ModelServer::start(small_model(), ServerConfig::default().with_workers(workers));
        let want = BackendKind::NativeCpu((cores / workers).max(1));
        assert_eq!(server.config().backend, want, "{workers} workers");
        server.shutdown();
    }
    // An explicit count is kept as given.
    let server = ModelServer::start(
        small_model(),
        ServerConfig::default().with_backend(BackendKind::NativeCpu(3)),
    );
    assert_eq!(server.config().backend, BackendKind::NativeCpu(3));
    server.shutdown();
    // A lone worker's engine gets every core and serves the same bits.
    let server = ModelServer::start(small_model(), ServerConfig::default().with_workers(1));
    assert_eq!(server.config().backend, BackendKind::NativeCpu(cores));
    let input = &inputs(1)[0];
    let golden = small_model()
        .infer(BackendKind::Functional)
        .submit_one(input);
    let served = server.submit(input).unwrap().wait().unwrap();
    assert_eq!(served.outputs[..], *golden.outputs(0));
    server.shutdown();
}

/// The shared plan is cut for the kernel's threads at start, so a
/// `t`-thread engine walks it as is on all `t` threads: single items
/// and lane batches alike.
#[test]
fn start_cuts_the_shared_plan_for_the_kernel_threads() {
    for backend in [BackendKind::NativeCpu(0), BackendKind::NativeCpu(3)] {
        let config = ServerConfig::default()
            .with_workers(1)
            .with_backend(backend);
        let server = ModelServer::start(small_model(), config);
        let BackendKind::NativeCpu(threads) = server.config().backend else {
            unreachable!("a native backend resolves to a native backend")
        };
        let model = small_model();
        assert_eq!(server.plans().len(), model.num_layers(), "built by start");
        for (i, plan) in server.plans().iter().enumerate() {
            assert!(
                plan.blocks().len() >= threads.min(plan.rows()),
                "{backend}: layer {i} has {} blocks for {threads} threads",
                plan.blocks().len()
            );
        }
        // The plans checked above are the ones the workers walk.
        let engine = NativeCpu::with_threads(threads);
        let planned: Vec<_> = server.plans().iter().map(PlannedLayer::Plan).collect();
        let batch: Vec<Vec<Q8p8>> = inputs(9).iter().map(|i| Q8p8::from_f32_slice(i)).collect();
        let encoded: Vec<_> = model.layers().iter().map(PlannedLayer::Encoded).collect();
        let golden = run_stack_planned(&Functional::new(), &encoded, &batch);
        let single = run_stack_planned(&engine, &planned, &batch[..1]);
        let fused = run_stack_planned(&engine, &planned, &batch);
        assert_eq!(single[0].outputs, golden[0].outputs);
        for (got, want) in fused.iter().zip(&golden) {
            assert_eq!(got.outputs, want.outputs);
        }
        server.shutdown();
    }
}

/// A one-worker server on the default kernel answers micro-batches
/// around the lane width bit-exactly: the coalescing cap is the batch
/// size and the window long enough that every batch fills.
#[test]
fn one_worker_default_server_is_bit_exact_at_every_batch_size() {
    let model = small_model();
    for n in [1, 2, 7, 8, 9, 13] {
        let requests = inputs(n);
        let golden = model.infer(BackendKind::Functional).submit(&requests);
        let config = ServerConfig::default()
            .with_workers(1)
            .with_max_batch(n)
            .with_max_wait_us(5_000_000);
        let server = ModelServer::start(model.clone(), config);
        let responses: Vec<_> = requests
            .iter()
            .map(|input| server.submit(input).expect("submit"))
            .collect();
        for (i, response) in responses.into_iter().enumerate() {
            let result = response.wait().expect("request failed");
            assert_eq!(result.outputs[..], *golden.outputs(i), "batch {n} item {i}");
            assert_eq!(result.coalesced, n, "batch {n} did not fill");
        }
        server.shutdown();
    }
}

/// The default cap is one two-stripe lane block: a one-worker default
/// server coalesces up to sixteen requests per dispatch and answers
/// batches around that bound bit-exactly. The window outlasts the
/// submissions, and shutdown closes it, so each dispatch holds
/// `min(remaining, 16)`.
#[test]
fn one_worker_default_server_fills_sixteen_item_lane_blocks() {
    let model = small_model();
    for n in [15, 16, 17, 33] {
        let requests = inputs(n);
        let golden = model.infer(BackendKind::Functional).submit(&requests);
        let config = ServerConfig::default()
            .with_workers(1)
            .with_max_wait_us(5_000_000);
        assert_eq!(config.max_batch, 16);
        let server = ModelServer::start(model.clone(), config);
        let responses: Vec<_> = requests
            .iter()
            .map(|input| server.submit(input).expect("submit"))
            .collect();
        let stats = server.shutdown();
        for (i, response) in responses.into_iter().enumerate() {
            let result = response.wait().expect("request failed");
            assert_eq!(result.outputs[..], *golden.outputs(i), "batch {n} item {i}");
            let dispatch = (n - i / 16 * 16).min(16);
            assert_eq!(result.coalesced, dispatch, "batch {n} item {i}");
        }
        assert_eq!(stats.max_coalesced, n.min(16), "batch {n}");
    }
}
