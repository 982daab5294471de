//! A traced run: a short untraced reference, the traced pass, the layer
//! probes, and the per-layer metrics derived from their spans.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::drive::Tally;
use crate::estimators::{median, percentile};
use crate::metrics::Report;
use crate::probes;
use crate::run::{accounting_holds, gated_and_arrival_phases, Session, OUTSTANDING};
use crate::spans::Tracer;
use crate::stack::{self, Workload};
use crate::traced::{self, Traced};

/// Shares of `--seconds` a traced run spends on its untraced reference,
/// its traced pass and its layer probes.
const UNTRACED_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.3;
const PROBE_SHARE: f64 = 0.4;

fn med_us(tracer: &Tracer, name: &str) -> f64 {
    let durations = tracer.durations_us(name);
    assert!(!durations.is_empty(), "no {name} span was recorded");
    median(&durations)
}

pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    dir: &Path,
) -> (Report, Tally, bool) {
    let (prepared, sources) = stack::prepare(workload, seed, quick);
    let name = &prepared.name;
    let is_cold = matches!(workload, Workload::Cold(_));
    let mut session = Session::open(&prepared, &sources.weights, dir);
    let mut tally = Tally {
        attempted: workload.warm_up_requests() as u64,
        failed: 0,
    };

    // 1. The untraced reference: the same generators an end-to-end run
    //    uses, for the numbers the server reports about real traffic
    //    and the latency the traced pass is compared against.
    let phases = session.timed(seconds * UNTRACED_SHARE, seed);
    let mut sent = 0;
    for timed in &phases {
        tally.absorb(timed.phase.tally);
        sent += timed.phase.tally.attempted;
    }
    let (gated, arrival_phase) = gated_and_arrival_phases(&phases);
    let untraced: Vec<_> = gated.measured().copied().collect();
    let arrival: Vec<_> = arrival_phase.measured().copied().collect();
    let e2e_p50 = median(&untraced.iter().map(|s| s.latency_us).collect::<Vec<_>>());

    // 2. The traced pass.
    let epoch = Instant::now();
    let traced_s = seconds * TRACED_SHARE;
    let load = |measured_s: f64| session.load(seed, measured_s);
    let addr = session.stack.net.local_addr();
    // On the in-process workload the wire is not on the request's path:
    // a short wire pass still prices the protocol and socket layers, as
    // a probe.
    let (main, wire_probe): (Traced, Option<Traced>) = match workload {
        Workload::SrvAlexfcW16 => {
            let server = session.lease.as_ref().expect("the in-process lease");
            let main = traced::submit_pass(server, load(traced_s * 0.7), OUTSTANDING, epoch);
            let probe = traced::wire_pass(addr, 1, load(traced_s * 0.3), epoch, "wire_probe");
            (main, Some(probe))
        }
        Workload::NetTiny => (
            traced::wire_pass(addr, 2, load(traced_s), epoch, "request"),
            None,
        ),
        _ => (
            traced::wire_pass(addr, 1, load(traced_s), epoch, "request"),
            None,
        ),
    };
    tally.absorb(main.tally);
    sent += main.tally.attempted;
    if let Some(probe) = &wire_probe {
        tally.absorb(probe.tally);
    }
    let wire = wire_probe.as_ref().unwrap_or(&main);
    let traced_p50 = med_us(&main.tracer, "request");

    // 3. The layer probes, on the workload's own model.
    let reference = &sources.reference[0];
    let probe_s = seconds * PROBE_SHARE;
    let budget = |share: f64| Duration::from_secs_f64(probe_s * share);
    let probe_set = probes::probe_set(reference, &sources.weights[0][0]);
    let coalesced: Vec<f64> = untraced.iter().map(|s| f64::from(s.coalesced)).collect();
    let batch = (median(&coalesced).round() as usize).clamp(1, 8);
    let mut tracer = Tracer::new(epoch);
    let config = workload.server_config();
    probes::cold_replay(
        &mut tracer,
        &mut tally,
        &prepared,
        &session.stack.paths,
        config,
        budget(0.3),
    );
    let codec_bytes = probes::compress_probes(&mut tracer, reference, budget(0.2));
    probes::first_dispatch(
        &mut tracer,
        &mut tally,
        &prepared,
        reference,
        &probe_set,
        budget(0.1),
    );
    let mut batches = vec![1, 8];
    if !batches.contains(&batch) {
        batches.push(batch);
    }
    for &b in &batches {
        let share = 0.35 / batches.len() as f64;
        probes::kernel(
            &mut tracer,
            &mut tally,
            &prepared,
            reference,
            &probe_set,
            b,
            budget(share),
        );
    }
    probes::protocol(&mut tracer, &wire.exchanges);
    let registry = session.stack.net.registry();
    let resident = prepared
        .specs
        .iter()
        .find(|spec| registry.is_resident(&spec.name))
        .expect("a model is resident after the traced pass");
    probes::acquire_hit(&mut tracer, registry, &resident.name);

    let stats = session.server_stats();
    let first_request_ms = session.first_request_ms;
    let compile_ms = session.stack.compile_ms;
    session.close();

    // 4. The metrics.
    let mut report = Report::default();
    let ms = |name: &str| med_us(&tracer, name) / 1e3;
    let counts = &probe_set.counts;
    report.set("compress.compile_ms", compile_ms);
    report.set("compress.codec_decode_ms", ms("compress.codec_decode"));
    report.set("compress.codec_bytes", codec_bytes as f64);
    report.set("compress.plan_build_ms", ms("compress.plan_build"));
    report.set("compress.plan_bytes", counts.plan_bytes as f64);
    report.set("compress.plan_entries", counts.plan_entries as f64);
    report.set("core.artifact.read_ms", ms("core.artifact.read"));
    report.set(
        "core.artifact.from_bytes_ms",
        ms("core.artifact.from_bytes"),
    );
    report.set(
        "core.artifact.validate_self_ms",
        ms("core.artifact.from_bytes") - ms("compress.codec_decode"),
    );

    let stack_us = |b: usize| med_us(&tracer, &format!("core.infer.run_stack_planned.b{b}"));
    let layers_us = |b: usize| med_us(&tracer, &format!("core.native.layers.b{b}"));
    report.set("core.native.stack_us.b1", stack_us(1));
    report.set("core.native.stack_us.b8", stack_us(8));
    // Bytes per µs is MB/s; MACs per µs is MMAC/s.
    report.set(
        "core.native.gbps.b1",
        counts.plan_bytes as f64 / stack_us(1) / 1e3,
    );
    report.set(
        "core.native.gmacs.b8",
        counts.macs_per_req * 8.0 / stack_us(8) / 1e3,
    );
    report.set("core.native.macs_per_req", counts.macs_per_req);
    report.set("core.native.live_cols_share", counts.live_cols_share);
    report.set(
        "core.native.first_dispatch_ms",
        ms("core.native.first_dispatch"),
    );
    report.note(
        "core.native.stack_share",
        stack_us(batch) / e2e_p50,
        format!("standalone stack at batch {batch} over the untraced p50"),
    );
    report.set("core.infer.chain_self_us.b1", stack_us(1) - layers_us(1));
    report.set("core.infer.chain_self_us.b8", stack_us(8) - layers_us(8));

    let wire_us = |name: &str| med_us(&wire.tracer, name);
    let wire_count = |key: &str| median(&wire.tracer.counts("serve.net.round_trip", key));
    report.set(
        "serve.protocol.encode_req_us",
        wire_us("serve.protocol.encode_req"),
    );
    report.set(
        "serve.protocol.decode_req_us",
        med_us(&tracer, "serve.protocol.decode_req"),
    );
    report.set(
        "serve.protocol.encode_resp_us",
        med_us(&tracer, "serve.protocol.encode_resp"),
    );
    report.set(
        "serve.protocol.decode_resp_us",
        wire_us("serve.protocol.decode_resp"),
    );
    report.set("serve.protocol.req_bytes", wire_count("req_bytes"));
    report.set("serve.protocol.resp_bytes", wire_count("resp_bytes"));

    let mut submits = tracer.durations_us("serve.server.submit");
    submits.extend(main.tracer.durations_us("serve.server.submit"));
    let submit_us = median(&submits);
    let queue_us = median(&untraced.iter().map(|s| s.queue_us).collect::<Vec<_>>());
    let service_us = median(
        &untraced
            .iter()
            .map(|s| s.service_us - s.queue_us)
            .collect::<Vec<_>>(),
    );
    let lanes = eie_core::compress::LANE_WIDTH as f64;
    let coalesced_mean = coalesced.iter().sum::<f64>() / coalesced.len() as f64;
    let lane_fill = coalesced
        .iter()
        .map(|c| c / ((c / lanes).ceil() * lanes))
        .sum::<f64>()
        / coalesced.len() as f64;
    report.set("serve.server.submit_us", submit_us);
    report.set("serve.server.queue_us", queue_us);
    report.set("serve.server.service_us", service_us);
    report.set("serve.server.coalesced_mean", coalesced_mean);
    report.set("serve.server.lane_fill", lane_fill);
    report.set("serve.server.start_ms", ms("serve.server.start"));
    report.set(
        "serve.server.first_request_ms",
        ms("serve.server.first_request"),
    );
    report.set("serve.server.shutdown_ms", ms("serve.server.shutdown"));

    // The stages of a cold request the probes could price. A victim's
    // shutdown is only on the path where there is a victim.
    let mut cold_stages_ms = ms("core.artifact.read")
        + ms("core.artifact.from_bytes")
        + ms("serve.server.start")
        + ms("serve.server.first_request");
    let cold_ms = if is_cold {
        cold_stages_ms += ms("serve.server.shutdown");
        traced_p50 / 1e3
    } else {
        first_request_ms
    };
    // What the server reports as service time on a cold request
    // includes the load; price the steady overhead on the replayed
    // server's steady requests instead.
    let overhead_us = if is_cold {
        med_us(&tracer, "serve.server.steady_request") - stack_us(1)
    } else {
        service_us - stack_us(batch)
    };
    report.set("serve.server.overhead_us", overhead_us);
    report.set(
        "serve.registry.acquire_hit_us",
        med_us(&tracer, "serve.registry.acquire_hit"),
    );
    report.set("serve.registry.loads", stats.loads as f64);
    report.set("serve.registry.evictions", stats.evictions as f64);
    report.set("serve.registry.cold_ms", cold_ms);
    report.set(
        "serve.registry.cold_unattributed_ms",
        cold_ms - cold_stages_ms,
    );

    let net_self: Vec<f64> = wire
        .tracer
        .durations_us("serve.net.round_trip")
        .iter()
        .zip(wire.tracer.counts("serve.net.round_trip", "service_us"))
        .map(|(trip, service)| trip - service)
        .collect();
    report.set("serve.net.self_us", median(&net_self));
    report.set("serve.net.connect_us", wire_us("serve.net.connect"));
    report.set("serve.faults.shed", stats.shed as f64);
    report.set("serve.faults.expired", stats.expired as f64);
    report.set("serve.faults.failed", stats.failed as f64);
    report.set("serve.faults.worker_restarts", stats.worker_restarts as f64);

    let latencies: Vec<f64> = untraced.iter().map(|s| s.latency_us).collect();
    report.set("harness.latency_p99_us", percentile(&latencies, 99.0));
    // From the due time where the workload has an open loop, which is
    // where a stall counts against every request queued behind it; the
    // closed loop's own latency elsewhere.
    let from_due: Vec<f64> = arrival.iter().map(|s| s.latency_us).collect();
    let late: Vec<f64> = arrival.iter().map(|s| s.late_us).collect();
    report.set("harness.arrival_p50_us", percentile(&from_due, 50.0));
    report.set("harness.arrival_p90_us", percentile(&from_due, 90.0));
    report.set("harness.gen_late_p99_us", percentile(&late, 99.0));
    report.set("harness.samples", untraced.len() as f64);
    // Share of the traced request the independently priced stages do
    // not explain: socket, handler hop, wake-ups, whatever the server
    // does around the kernel.
    let explained_us = match workload {
        Workload::Cold(_) => cold_stages_ms * 1e3,
        Workload::SrvAlexfcW16 => submit_us + queue_us + stack_us(batch),
        _ => {
            wire_us("serve.protocol.encode_req")
                + med_us(&tracer, "serve.protocol.decode_req")
                + submit_us
                + queue_us
                + stack_us(batch)
                + med_us(&tracer, "serve.protocol.encode_resp")
                + wire_us("serve.protocol.decode_resp")
        }
    };
    report.set(
        "harness.unattributed_share",
        1.0 - explained_us / traced_p50,
    );
    report.set(
        "harness.trace_overhead_share",
        (traced_p50 - e2e_p50) / e2e_p50,
    );

    // Per network layer, for the reader and the trace file; the result
    // line carries the stack-level numbers every workload has.
    for b in &batches {
        for layer in &prepared.specs[0].layers {
            let span = format!("core.native.layer.b{b}.{}", layer.name());
            println!("# {span} {:.1} us", med_us(&tracer, &span));
        }
    }

    let mut all = main.tracer;
    if let Some(probe) = wire_probe {
        all.absorb(probe.tracer);
    }
    all.absorb(tracer);
    let trace_path = dir.with_file_name(format!("trace-{name}.jsonl"));
    all.write_jsonl(&trace_path).expect("write the trace file");
    println!(
        "# {} spans written to {}",
        all.spans().len(),
        trace_path.display()
    );

    let correct = tally.failed == 0 && accounting_holds(workload, &stats, sent);
    (report, tally, correct)
}
