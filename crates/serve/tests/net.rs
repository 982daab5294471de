//! The network-serving acceptance tests: concurrent clients × multiple
//! models over a real loopback socket, bit-exact against one-at-a-time
//! functional golden runs; deterministic shed-load under a tiny queue
//! bound; clean drain on shutdown, prompt with idle connections open and
//! answering the request in flight.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use eie_core::fixed::Q8p8;
use eie_core::nn::zoo::{random_sparse, sample_activations};
use eie_core::{BackendKind, CompiledModel, EieConfig};
use eie_serve::protocol::{read_frame, Request, Response};
use eie_serve::{
    Client, ClientError, ClientTimeouts, FaultPlan, ModelRegistry, NetServer, ServerConfig,
    ServerError,
};

fn stack_model(dims: &[usize], seed: u64) -> CompiledModel {
    let weights: Vec<_> = dims
        .windows(2)
        .enumerate()
        .map(|(i, pair)| {
            let mut s = seed.wrapping_add(i as u64);
            let mut m = random_sparse(pair[1], pair[0], 0.3, s);
            while m.nnz() == 0 {
                s = s.wrapping_add(0x9E37_79B9);
                m = random_sparse(pair[1], pair[0], 0.4, s);
            }
            m
        })
        .collect();
    let refs: Vec<_> = weights.iter().collect();
    CompiledModel::compile(EieConfig::default().with_num_pes(4), &refs)
}

/// The PR's acceptance criterion: 4 concurrent clients mixing requests
/// across 2 models over loopback TCP, every response bit-identical to a
/// one-at-a-time functional golden run, and a clean drain at the end
/// (every accepted request answered, server stats consistent).
#[test]
fn four_clients_two_models_loopback_bit_exact_with_clean_drain() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 12; // per client

    let models = [
        ("fc-a".to_string(), Arc::new(stack_model(&[20, 28, 16], 1))),
        ("fc-b".to_string(), Arc::new(stack_model(&[24, 10], 2))),
    ];
    let registry = ModelRegistry::new(
        ServerConfig::default()
            .with_workers(2)
            .with_max_batch(5)
            .with_max_wait_us(400),
    );
    for (name, model) in &models {
        registry
            .register_model(name.clone(), model.as_ref())
            .unwrap();
    }
    let server = NetServer::bind("127.0.0.1:0", registry).unwrap();
    let addr = server.local_addr();

    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let models = models.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for j in 0..REQUESTS {
                    let (name, model) = &models[(t + j) % models.len()];
                    let input =
                        sample_activations(model.input_dim(), 0.5, true, (t * REQUESTS + j) as u64);
                    let served: Vec<Q8p8> = client.infer_outputs(name, &input).expect("infer");
                    let golden = model.infer(BackendKind::Functional).submit_one(&input);
                    assert_eq!(
                        served,
                        golden.outputs(0),
                        "client {t} request {j} to {name:?} diverged from the \
                         one-at-a-time functional golden run"
                    );
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("client thread panicked");
    }

    // Every request was answered, none shed, both models resident.
    let mut control = Client::connect(addr).unwrap();
    let report = control.stats().unwrap();
    assert_eq!(report.requests as usize, CLIENTS * REQUESTS);
    assert_eq!(report.models_resident, 2);
    assert_eq!(report.loads, 2);
    assert_eq!(report.queue_depth, 0, "load finished but requests queued");
    assert!(report.p99_us > 0.0);

    // Clean drain: SHUTDOWN is acknowledged, the node stops, and the
    // final merged stats still account for every request.
    control.shutdown_server().unwrap();
    let stats = server.stop();
    assert_eq!(stats.requests as usize, CLIENTS * REQUESTS);
}

/// Deterministic overload: one worker holding a long collection window
/// keeps claimed requests in the bounded queue, so a tiny `queue_depth`
/// fills and the N+1'th concurrent client is shed with a typed
/// OVERLOADED frame — while every *accepted* request still completes
/// bit-exactly.
#[test]
fn overload_is_shed_as_a_typed_frame_and_accepted_work_completes() {
    let model = Arc::new(stack_model(&[16, 12], 7));
    let golden_model = Arc::clone(&model);
    let registry = ModelRegistry::new(
        ServerConfig::default()
            .with_workers(1)
            .with_max_batch(64)
            .with_max_wait_us(500_000) // 500 ms window
            .with_queue_depth(2),
    );
    registry.register_model("m", model.as_ref()).unwrap();
    let server = NetServer::bind("127.0.0.1:0", registry).unwrap();
    let addr = server.local_addr();

    // Two connections fill the queue; their responses arrive only when
    // the collection window closes.
    let fillers: Vec<_> = (0..2)
        .map(|t| {
            let model = Arc::clone(&model);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let input = sample_activations(16, 0.5, true, t);
                let served = client.infer_outputs("m", &input).expect("filler infer");
                let golden = model.infer(BackendKind::Functional).submit_one(&input);
                assert_eq!(served, golden.outputs(0), "filler {t} diverged");
            })
        })
        .collect();

    // Let both fillers enqueue (well inside the 500 ms window).
    thread::sleep(Duration::from_millis(150));

    // The third concurrent request finds the queue at its bound and is
    // shed immediately — a typed answer carrying the configured depth,
    // not a dropped connection or an indefinite block.
    let mut client = Client::connect(addr).unwrap();
    let shed_input = sample_activations(16, 0.5, true, 99);
    let started = Instant::now();
    match client.infer("m", &shed_input).unwrap() {
        Response::Overloaded { depth } => assert_eq!(depth, 2),
        other => panic!("expected OVERLOADED, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "shed load must answer without waiting out the batch window"
    );

    for filler in fillers {
        filler.join().expect("filler panicked");
    }

    // After the window drains, the same request is admitted and serves
    // bit-exactly.
    let served = client.infer_outputs("m", &shed_input).unwrap();
    let golden = golden_model
        .infer(BackendKind::Functional)
        .submit_one(&shed_input);
    assert_eq!(served, golden.outputs(0));

    client.shutdown_server().unwrap();
    let stats = server.stop();
    assert_eq!(
        stats.requests, 3,
        "2 fillers + 1 retry; the shed request never counts"
    );
}

fn handler_panics(errors: &[ServerError]) -> Vec<&ServerError> {
    errors
        .iter()
        .filter(|e| matches!(e, ServerError::HandlerPanicked { .. }))
        .collect()
}

/// A connection left open after its answer parks its handler in a
/// blocking read. Stopping the node must wake that read at once (the
/// drain shuts the read half) instead of waiting out a poll interval,
/// and the client must then see the connection end, not hang.
#[test]
fn stop_returns_promptly_with_an_idle_connection_open() {
    let model = stack_model(&[16, 12], 3);
    let registry = ModelRegistry::new(ServerConfig::default().with_workers(1));
    registry.register_model("m", &model).unwrap();
    let server = NetServer::bind("127.0.0.1:0", registry).unwrap();
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientTimeouts::all(Duration::from_secs(5)),
    )
    .unwrap();
    let input = sample_activations(16, 0.5, true, 1);
    let served = client.infer_outputs("m", &input).unwrap();
    let golden = model.infer(BackendKind::Functional).submit_one(&input);
    assert_eq!(served, golden.outputs(0));

    let started = Instant::now();
    let stats = server.stop();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "stop took {took:?} with one idle connection open"
    );
    assert_eq!(stats.requests, 1);
    assert!(handler_panics(&stats.errors).is_empty(), "{stats}");

    match client.infer("m", &input) {
        Err(ClientError::Disconnected) => {}
        other => panic!("expected the stopped node to disconnect, got {other:?}"),
    }
}

/// Shutdown requested while a request is being computed: the drain
/// shuts the connection's read half, yet the request in flight still
/// gets its bit-exact answer over the open write half. The connection
/// then ends — a second request, pipelined behind the first and so
/// already in the server's socket buffer, is not served: the peer reads
/// a clean end of stream (what [`Client`] reports as
/// `ClientError::Disconnected`) — and no handler died on the way.
#[test]
fn request_in_flight_is_answered_across_the_drain() {
    let model = stack_model(&[20, 14, 9], 5);
    // Hold the first dispatch long enough to shut down under it.
    let plan = Arc::new(FaultPlan::new().stall_dispatch(0, Duration::from_millis(300)));
    let registry = ModelRegistry::new(ServerConfig::default().with_workers(1))
        .with_fault_plan(Arc::clone(&plan));
    registry.register_model("m", &model).unwrap();
    let server = NetServer::bind("127.0.0.1:0", registry).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let input = sample_activations(20, 0.5, true, 2);
    let mut frames = Request::infer("m", input.clone()).to_frame();
    frames.extend(Request::infer("m", input.clone()).to_frame());
    raw.write_all(&frames).unwrap();

    // Wait until the worker holds the first request in its stalled
    // dispatch, then drain under it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while plan.dispatches() == 0 {
        assert!(Instant::now() < deadline, "the request never dispatched");
        thread::sleep(Duration::from_millis(1));
    }
    server.request_shutdown();

    let body = read_frame(&mut raw).unwrap().expect("the in-flight answer");
    let golden = model.infer(BackendKind::Functional).submit_one(&input);
    match Response::from_body(&body).unwrap() {
        Response::Output(out) => {
            let served: Vec<Q8p8> = out.outputs.into_iter().map(Q8p8::from_raw).collect();
            assert_eq!(served, golden.outputs(0), "in-flight answer diverged");
        }
        other => panic!("expected the in-flight OUTPUT, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut raw), Ok(None)),
        "the pipelined request must end in a disconnect, not an answer"
    );

    let stats = server.stop();
    assert_eq!(stats.requests, 1);
    assert!(handler_panics(&stats.errors).is_empty(), "{stats}");
}

/// A drain that cuts a frame in half closes the connection silently:
/// the peer sent nothing malformed, so it gets no MALFORMED answer,
/// just the end of the stream.
#[test]
fn drain_mid_frame_closes_without_a_malformed_answer() {
    let server =
        NetServer::bind("127.0.0.1:0", ModelRegistry::new(ServerConfig::default())).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let frame = Request::infer("m", vec![0.5; 8]).to_frame();
    raw.write_all(&frame[..frame.len() / 2]).unwrap();
    // Give the handler time to block inside the frame's body.
    thread::sleep(Duration::from_millis(20));

    let stats = server.stop();
    assert!(handler_panics(&stats.errors).is_empty(), "{stats}");
    assert!(
        matches!(read_frame(&mut raw), Ok(None)),
        "a frame cut by the drain must end the stream unanswered"
    );
}

/// A deadline under 1 µs is a spent budget, not "no deadline": the
/// client sends it as 1 µs, and only `None` as the wire's 0.
#[test]
fn a_sub_microsecond_deadline_is_sent_as_one_microsecond() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let node = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut sent = Vec::new();
        while let Some(body) = read_frame(&mut stream).unwrap() {
            match Request::from_body(&body).unwrap() {
                Request::Infer { deadline_us, .. } => sent.push(deadline_us),
                other => panic!("expected an INFER, got {other:?}"),
            }
            stream.write_all(&Response::Ok.to_frame()).unwrap();
        }
        sent
    });
    let mut client = Client::connect(addr).unwrap();
    for deadline in [Some(Duration::ZERO), Some(Duration::from_nanos(500)), None] {
        let answer = client.infer_with("m", &[0.5; 4], deadline, 0).unwrap();
        assert_eq!(answer, Response::Ok);
    }
    drop(client);
    assert_eq!(node.join().unwrap(), [1, 1, 0]);
}
