//! The traced passes: the same loads as the untraced generators, with
//! the harness speaking the wire itself so that encode, round trip and
//! decode are separate spans.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use eie_serve::protocol::{read_frame, write_frame, OutputReport, Request, Response};
use eie_serve::ModelServer;

use crate::drive::{Load, Tally};
use crate::schedule::Rng;
use crate::spans::Tracer;
use crate::stack::POOL;

/// A request frame and the report it was answered with, kept so the
/// in-server codec stages can be replayed on real bytes.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub frame: Vec<u8>,
    pub report: OutputReport,
}

/// Exchanges each connection keeps for the replay.
const KEEP: usize = 32;

#[derive(Debug)]
pub struct Traced {
    pub tracer: Tracer,
    pub tally: Tally,
    pub exchanges: Vec<Exchange>,
}

/// Closed loop over `conns` raw loopback connections. Per request:
/// `request` ⊃ `serve.protocol.encode_req`, `serve.net.round_trip`
/// (carrying the server-reported service and queue times as counts),
/// `serve.protocol.decode_resp`, `harness.verify`.
///
/// `root` names the per-request span: `request` where the wire is the
/// workload's path, something else where the pass is only a probe.
pub fn wire_pass(
    addr: SocketAddr,
    conns: usize,
    load: Load<'_>,
    epoch: Instant,
    root: &str,
) -> Traced {
    let barrier = Barrier::new(conns);
    let parts: Vec<Traced> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    let connect = tracer.open("serve.net.connect", None, None);
                    let stream =
                        TcpStream::connect(addr).expect("connect to the loopback listener");
                    // As `Client` does: serving frames are small and
                    // latency-bound.
                    stream.set_nodelay(true).expect("set TCP_NODELAY");
                    tracer.close(connect);
                    barrier.wait();
                    wire_connection(stream, (conn, conns), load, tracer, root)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a traced generator panicked"))
            .collect()
    });
    let mut merged = Traced {
        tracer: Tracer::new(epoch),
        tally: Tally::default(),
        exchanges: Vec::new(),
    };
    for part in parts {
        merged.tracer.absorb(part.tracer);
        merged.tally.absorb(part.tally);
        merged.exchanges.extend(part.exchanges);
    }
    merged
}

fn wire_connection(
    mut stream: TcpStream,
    (conn, conns): (usize, usize),
    load: Load<'_>,
    mut tracer: Tracer,
    root_name: &str,
) -> Traced {
    let mut rng = Rng::stream(load.seed, 0x300 + conn as u64);
    let mut tally = Tally::default();
    let mut exchanges = Vec::new();
    let t0 = Instant::now();
    for n in 0u64.. {
        if t0.elapsed() >= load.total {
            break;
        }
        let request = n * conns as u64 + conn as u64;
        let id = Some(request);
        let model = load.model(n);
        let input = rng.below(POOL);
        let root = tracer.open(root_name, None, id);
        let frame = tracer.time("serve.protocol.encode_req", Some(root), id, || {
            let name = load.prepared.specs[model].name.clone();
            Request::infer(name, load.prepared.inputs[input].clone()).to_frame()
        });
        let trip = tracer.open("serve.net.round_trip", Some(root), id);
        let body = write_frame(&mut stream, &frame).and_then(|()| read_frame(&mut stream));
        tracer.close(trip);
        let response = tracer.time("serve.protocol.decode_resp", Some(root), id, || {
            body.map(|body| body.map(|body| (body.len(), Response::from_body(&body))))
        });
        let verify = tracer.open("harness.verify", Some(root), id);
        let good = match response {
            Ok(Some((body_len, Ok(Response::Output(report))))) => {
                let golden = &load.prepared.goldens[model][input];
                let good = tally.check(
                    load.workload(),
                    request,
                    golden,
                    report.outputs.iter().copied(),
                );
                tracer.count(trip, "service_us", report.latency_us);
                tracer.count(trip, "queue_us", report.queue_us);
                tracer.count(trip, "coalesced", f64::from(report.coalesced));
                tracer.count(trip, "req_bytes", frame.len() as f64);
                tracer.count(trip, "resp_bytes", (body_len + 4) as f64);
                if good && exchanges.len() < KEEP {
                    exchanges.push(Exchange { frame, report });
                }
                good
            }
            other => {
                tally.attempted += 1;
                tally.fail(load.workload(), request, &format!("answered {other:?}"));
                false
            }
        };
        tracer.close(verify);
        tracer.close(root);
        if !good {
            break;
        }
    }
    Traced {
        tracer,
        tally,
        exchanges,
    }
}

/// The in-process load with spans: `request` runs from submission to
/// the answer and contains `serve.server.submit` (the call) and
/// `serve.server.wait` (the part of the wait the generator blocked in).
pub fn submit_pass(
    server: &Arc<ModelServer>,
    load: Load<'_>,
    outstanding: usize,
    epoch: Instant,
) -> Traced {
    let mut tracer = Tracer::new(epoch);
    let mut rng = Rng::stream(load.seed, 0x400);
    let mut tally = Tally::default();
    let mut in_flight = VecDeque::with_capacity(outstanding);
    let mut request = 0u64;
    let t0 = Instant::now();
    loop {
        while in_flight.len() < outstanding && t0.elapsed() < load.total {
            let input = rng.below(POOL);
            let root = tracer.open("request", None, Some(request));
            let submitted = tracer.time("serve.server.submit", Some(root), Some(request), || {
                server.submit(&load.prepared.inputs[input])
            });
            match submitted {
                Ok(handle) => in_flight.push_back((handle, root, request, input)),
                Err(e) => {
                    tracer.close(root);
                    tally.attempted += 1;
                    tally.fail(load.workload(), request, &format!("refused: {e}"));
                }
            }
            request += 1;
        }
        let Some((handle, root, request, input)) = in_flight.pop_front() else {
            break;
        };
        let result = tracer.time("serve.server.wait", Some(root), Some(request), || {
            handle.wait()
        });
        tracer.close(root);
        match result {
            Ok(result) => {
                let words = result.outputs.iter().map(|v| v.raw());
                tally.check(
                    load.workload(),
                    request,
                    &load.prepared.goldens[0][input],
                    words,
                );
                tracer.count(root, "service_us", result.latency_us);
                tracer.count(root, "queue_us", result.queue_us);
                tracer.count(root, "coalesced", result.coalesced as f64);
            }
            Err(e) => {
                tally.attempted += 1;
                tally.fail(load.workload(), request, &format!("failed: {e}"));
            }
        }
    }
    Traced {
        tracer,
        tally,
        exchanges: Vec::new(),
    }
}
