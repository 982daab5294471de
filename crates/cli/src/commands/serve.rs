//! `eie serve` — serve artifacts under load, locally or over TCP.
//!
//! Three modes share one subcommand:
//!
//! * **Local** (default): load one `.eie` into a [`ModelServer`] and
//!   drive it with a generated request stream at a target QPS,
//!   reporting the latency distribution (p50/p95/p99), queue time,
//!   coalescing behaviour and throughput.
//! * **`--listen <addr>`**: put a [`ModelRegistry`] of named artifacts
//!   behind a TCP listener speaking the EIE wire protocol
//!   ([`eie_serve::protocol`]), with LRU-by-bytes eviction past
//!   `--budget-bytes` and per-request shed-load admission control.
//! * **`--connect <addr>`**: the matching load generator — N client
//!   connections mixing requests across models, optionally verifying
//!   every response bit-exact against a local functional golden run.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use eie_core::backend::{host_cores, lane_isa};
use eie_core::{BackendKind, CompiledModel};
use eie_serve::protocol::{ErrorCode, Response};
use eie_serve::{
    Client, ClientTimeouts, FaultPlan, ModelRegistry, ModelServer, NetPolicy, NetServer,
    RetryPolicy, ServerConfig, ServerStats, SubmitOptions,
};

use crate::commands::{load_model, parse_backend, sample_batch};
use crate::opts::Opts;
use crate::outln;
use crate::CliError;

/// The usage text, its serving-policy defaults read from
/// [`ServerConfig::default`] so `--help` cannot drift from what runs.
fn help() -> String {
    let ServerConfig {
        workers,
        max_batch,
        max_wait_us,
        queue_depth,
        ..
    } = ServerConfig::default();
    format!(
        "eie serve — serve .eie artifacts under load, locally or over TCP

USAGE:
    eie serve <MODEL.eie> [OPTIONS]                          local self-driving load
    eie serve --listen <ADDR> --model <NAME=PATH>... [OPTIONS]   network serving node
    eie serve --connect <ADDR> --model <NAME=PATH>... [OPTIONS]  load-generator client

SERVING POLICY (local and --listen):
    --backend <B>       Worker backend: cycle | functional | native[:threads]
                        [default: native — each worker's kernel gets
                        max(1, cores / workers) threads]
    --workers <N>       Worker threads per model, one backend each [default: {workers}]
    --max-batch <N>     Micro-batch coalescing cap [default: {max_batch}]
    --max-wait-us <N>   Straggler-collection window, µs (0 = none) [default: {max_wait_us}]
    --queue-depth <N>   Bounded queue depth (admission-control point) [default: {queue_depth}]

NETWORK NODE (--listen):
    --model <NAME=PATH> Register PATH under NAME (repeatable); a bare PATH
                        registers under its file stem
    --budget-bytes <N>  Resident-artifact byte budget: past it, cold models
                        are evicted LRU [default: unbounded]

LOAD GENERATION (local and --connect):
    --requests <N>      Requests to drive (per connection when --connect)
                        [default: 256]
    --clients <N>       Concurrent client connections (--connect) [default: 4]
    --qps <Q>           Target offered rate, requests/s, local mode only
                        (0 = unthrottled, backpressure-paced) [default: 0]
    --density <D>       Input activation density in [0, 1] [default: 0.35]
    --signed            Sample signed activations (embedding/LSTM inputs)
    --seed <N>          Input sampling seed [default: 1]
    --verify            Re-check every response against a one-at-a-time
                        functional golden run (exit 1 on divergence)
    --shutdown          After the load, ask the server to drain and exit
                        (--connect)

FAULT TOLERANCE:
    --deadline-ms <N>   Per-request deadline, ms; lapsed requests are
                        answered DEADLINE_EXCEEDED, never executed
                        (local and --connect) [default: none]
    --retries <N>       Attempts per request (--connect): transport
                        failures, OVERLOADED and WORKER_FAILED retry
                        with deterministic exponential backoff
                        [default: 3]
    --write-grace-ms <N> Evict clients that stall response writes longer
                        than this (--listen) [default: 2000]
    EIE_FAULTS=<SPEC>   (--listen, env) Install a deterministic fault
                        plan, e.g. \"panic@3,stall@5:2000,latency:100\" —
                        chaos testing only
    -h, --help          Show this help"
    )
}

pub fn run(mut opts: Opts) -> Result<(), CliError> {
    if opts.wants_help() {
        outln!("{}", help());
        return Ok(());
    }
    let listen = opts.value(&["--listen"])?;
    let connect = opts.value(&["--connect"])?;
    match (listen, connect) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--listen and --connect are mutually exclusive".into(),
        )),
        (Some(addr), None) => run_listen(&addr, opts),
        (None, Some(addr)) => run_connect(&addr, opts),
        (None, None) => run_local(opts),
    }
}

/// Parses the shared serving-policy options.
fn parse_policy(opts: &mut Opts) -> Result<ServerConfig, CliError> {
    let backend = match opts.value(&["--backend"])? {
        Some(name) => parse_backend(&name)?,
        None => BackendKind::NativeCpu(0),
    };
    let defaults = ServerConfig::default();
    let workers: usize = opts.parsed(&["--workers"])?.unwrap_or(defaults.workers);
    let max_batch: usize = opts.parsed(&["--max-batch"])?.unwrap_or(defaults.max_batch);
    let max_wait_us: u64 = opts
        .parsed(&["--max-wait-us"])?
        .unwrap_or(defaults.max_wait_us);
    let queue_depth: usize = opts
        .parsed(&["--queue-depth"])?
        .unwrap_or(defaults.queue_depth);
    if workers == 0 || max_batch == 0 || queue_depth == 0 {
        return Err(CliError::Usage(
            "--workers, --max-batch and --queue-depth must be positive".into(),
        ));
    }
    Ok(defaults
        .with_backend(backend)
        .with_workers(workers)
        .with_max_batch(max_batch)
        .with_max_wait_us(max_wait_us)
        .with_queue_depth(queue_depth))
}

/// Splits a `--model` operand: `name=path`, or a bare path registered
/// under its file stem.
fn parse_model_spec(spec: &str) -> Result<(String, String), CliError> {
    if let Some((name, path)) = spec.split_once('=') {
        if name.is_empty() || path.is_empty() {
            return Err(CliError::Usage(format!(
                "--model {spec:?}: expected NAME=PATH with both parts non-empty"
            )));
        }
        return Ok((name.to_string(), path.to_string()));
    }
    let stem = std::path::Path::new(spec)
        .file_stem()
        .and_then(|s| s.to_str())
        .filter(|s| !s.is_empty())
        .ok_or_else(|| CliError::Usage(format!("--model {spec:?}: cannot derive a model name")))?;
    Ok((stem.to_string(), spec.to_string()))
}

/// Collects `--model` operands (plus an optional positional artifact)
/// into (name, path) pairs; at least one is required.
fn collect_models(opts: &mut Opts) -> Result<Vec<(String, String)>, CliError> {
    let specs = opts.values(&["--model"])?;
    let mut models = Vec::with_capacity(specs.len() + 1);
    for spec in &specs {
        models.push(parse_model_spec(spec)?);
    }
    Ok(models)
}

/// The start-up line naming the threads each worker's kernel runs
/// (`backend` as [`ModelServer::start`] resolves it).
fn print_kernel_threads(backend: BackendKind) {
    if let BackendKind::NativeCpu(threads) = backend {
        outln!("kernel threads: {threads} per worker");
    }
}

fn print_serving_stats(stats: &ServerStats) {
    outln!(
        "served    {:.0} frames/s ({} requests in {} micro-batches, mean {:.1}/batch, max {})",
        stats.frames_per_second(),
        stats.requests,
        stats.batches,
        stats.mean_coalesced(),
        stats.max_coalesced
    );
    outln!(
        "latency   p50 {:.1} µs | p95 {:.1} µs | p99 {:.1} µs (queue mean {:.1} µs)",
        stats.p50(),
        stats.p95(),
        stats.p99(),
        stats.mean_queue_us()
    );
    let faulted = stats.shed
        + stats.expired
        + stats.failed
        + stats.worker_restarts
        + stats.slow_client_evictions
        + stats.degraded;
    if faulted > 0 || !stats.errors.is_empty() {
        outln!(
            "faults    shed {}, expired {}, failed {}, worker restarts {}, \
             slow-client evictions {}{}",
            stats.shed,
            stats.expired,
            stats.failed,
            stats.worker_restarts,
            stats.slow_client_evictions,
            if stats.degraded > 0 { ", DEGRADED" } else { "" }
        );
        for error in &stats.errors {
            outln!("fault     {error}");
        }
    }
}

/// `--listen`: a network serving node. Runs until a client sends a
/// SHUTDOWN frame, then drains and reports.
fn run_listen(addr: &str, mut opts: Opts) -> Result<(), CliError> {
    let config = parse_policy(&mut opts)?;
    let budget: Option<u64> = opts.parsed(&["--budget-bytes"])?;
    let write_grace_ms: Option<u64> = opts.parsed(&["--write-grace-ms"])?;
    let mut models = collect_models(&mut opts)?;
    let positional = opts.finish(1)?;
    if let Some(path) = positional.first() {
        models.push(parse_model_spec(path)?);
    }
    if models.is_empty() {
        return Err(CliError::Usage(
            "--listen needs at least one --model NAME=PATH (see --help)".into(),
        ));
    }

    let mut registry = ModelRegistry::new(config);
    if let Some(budget) = budget {
        if budget == 0 {
            return Err(CliError::Usage("--budget-bytes must be positive".into()));
        }
        registry = registry.with_budget_bytes(budget as usize);
    }
    // Chaos testing only: EIE_FAULTS installs a deterministic fault
    // plan (worker panics, stalls, latency, connection faults) so the
    // recovery path can be driven end to end from CI.
    if let Ok(spec) = std::env::var("EIE_FAULTS") {
        if !spec.trim().is_empty() {
            let plan = FaultPlan::parse(&spec)
                .map_err(|e| CliError::Usage(format!("EIE_FAULTS {spec:?}: {e}")))?;
            outln!("faults    injecting {plan}");
            registry = registry.with_fault_plan(Arc::new(plan));
        }
    }
    for (name, path) in &models {
        registry
            .register_file(name.clone(), path)
            .map_err(|e| CliError::Usage(e.to_string()))?;
        outln!("model     {name} <- {path}");
    }
    outln!("serving   {}", registry.server_config());
    print_kernel_threads(config.backend.per_worker(host_cores(), config.workers));
    outln!("lanes: {}", lane_isa());

    let mut policy = NetPolicy::default();
    if let Some(ms) = write_grace_ms {
        if ms == 0 {
            return Err(CliError::Usage("--write-grace-ms must be positive".into()));
        }
        policy = policy.with_write_grace(Duration::from_millis(ms));
    }
    let server = NetServer::bind_with_policy(addr, registry, policy)
        .map_err(|e| CliError::Runtime(format!("cannot listen on {addr}: {e}")))?;
    outln!("listening {}", server.local_addr());

    server.wait_for_shutdown();
    outln!("draining  shutdown requested");
    let stats = server.stop();
    print_serving_stats(&stats);
    Ok(())
}

/// What one load-generator connection did.
#[derive(Debug, Default)]
struct ClientTally {
    served: usize,
    overloaded: usize,
    verified: usize,
    /// Retry attempts spent (transport, OVERLOADED, WORKER_FAILED).
    retried: usize,
    /// Requests that succeeded only after ≥ 1 retry.
    recovered: usize,
    /// Requests answered DEADLINE_EXCEEDED.
    expired: usize,
}

/// `--connect`: drive a serving node with N concurrent connections
/// mixing requests across the named models.
fn run_connect(addr: &str, mut opts: Opts) -> Result<(), CliError> {
    let requests: usize = opts.parsed(&["--requests"])?.unwrap_or(256);
    let clients: usize = opts.parsed(&["--clients"])?.unwrap_or(4);
    let density: f64 = opts.parsed(&["--density"])?.unwrap_or(0.35);
    let signed = opts.flag("--signed");
    let seed: u64 = opts.parsed(&["--seed"])?.unwrap_or(1);
    let verify = opts.flag("--verify");
    let shutdown = opts.flag("--shutdown");
    let deadline_ms: Option<u64> = opts.parsed(&["--deadline-ms"])?;
    let retries: u32 = opts.parsed(&["--retries"])?.unwrap_or(3);
    let models = collect_models(&mut opts)?;
    opts.finish(0)?;
    if models.is_empty() {
        return Err(CliError::Usage(
            "--connect needs at least one --model NAME=PATH (see --help)".into(),
        ));
    }
    if requests == 0 || clients == 0 || retries == 0 {
        return Err(CliError::Usage(
            "--requests, --clients and --retries must be positive".into(),
        ));
    }
    let deadline = match deadline_ms {
        Some(0) => return Err(CliError::Usage("--deadline-ms must be positive".into())),
        Some(ms) => Some(Duration::from_millis(ms)),
        None => None,
    };
    if !(0.0..=1.0).contains(&density) {
        return Err(CliError::Usage("--density must be in [0, 1]".into()));
    }

    // The client loads each artifact locally too: it needs the input
    // dimension to sample requests, and (under --verify) the model
    // itself to recompute the functional golden answer.
    let mut loaded: Vec<(String, Arc<CompiledModel>)> = Vec::with_capacity(models.len());
    for (name, path) in &models {
        loaded.push((name.clone(), Arc::new(load_model(path)?)));
    }
    outln!(
        "load      {clients} connections x {requests} requests over {} models -> {addr}",
        loaded.len()
    );

    let loaded = Arc::new(loaded);
    let started = Instant::now();
    let mut threads = Vec::with_capacity(clients);
    for t in 0..clients {
        let loaded = Arc::clone(&loaded);
        let addr = addr.to_string();
        threads.push(thread::spawn(move || {
            drive_connection(
                &addr, t, requests, &loaded, density, signed, seed, verify, deadline, retries,
            )
        }));
    }
    let mut tally = ClientTally::default();
    for thread in threads {
        let t = thread
            .join()
            .map_err(|_| CliError::Runtime("load-generator thread panicked".into()))?
            .map_err(CliError::Runtime)?;
        tally.served += t.served;
        tally.overloaded += t.overloaded;
        tally.verified += t.verified;
        tally.retried += t.retried;
        tally.recovered += t.recovered;
        tally.expired += t.expired;
    }
    let wall_s = started.elapsed().as_secs_f64();
    outln!(
        "offered   {:.0} requests/s over {:.1} ms ({} served, {} shed as OVERLOADED)",
        tally.served as f64 / wall_s,
        wall_s * 1e3,
        tally.served,
        tally.overloaded
    );
    outln!(
        "resilience {} retried, {} recovered, {} expired past deadline",
        tally.retried,
        tally.recovered,
        tally.expired
    );
    if verify {
        outln!(
            "verified  {} responses bit-exact against the functional golden model",
            tally.verified
        );
    }

    let mut control = Client::connect(addr)
        .map_err(|e| CliError::Runtime(format!("cannot connect to {addr}: {e}")))?;
    let report = control
        .stats()
        .map_err(|e| CliError::Runtime(format!("stats request failed: {e}")))?;
    outln!(
        "server    {} requests in {} micro-batches (max {}/batch), {}/{} models resident ({} bytes)",
        report.requests,
        report.batches,
        report.max_coalesced,
        report.models_resident,
        report.models_registered,
        report.resident_bytes
    );
    outln!(
        "latency   p50 {:.1} µs | p95 {:.1} µs | p99 {:.1} µs (queue mean {:.1} µs, depth {})",
        report.p50_us,
        report.p95_us,
        report.p99_us,
        report.mean_queue_us,
        report.queue_depth
    );
    if report.shed + report.expired + report.failed + report.worker_restarts > 0
        || report.degraded > 0
        || report.slow_client_evictions > 0
    {
        outln!(
            "faults    shed {}, expired {}, failed {}, worker restarts {}, \
             slow-client evictions {}{}",
            report.shed,
            report.expired,
            report.failed,
            report.worker_restarts,
            report.slow_client_evictions,
            if report.degraded > 0 {
                ", DEGRADED"
            } else {
                ""
            }
        );
    }
    if shutdown {
        control
            .shutdown_server()
            .map_err(|e| CliError::Runtime(format!("shutdown request failed: {e}")))?;
        outln!("shutdown  acknowledged");
    }
    Ok(())
}

/// One connection's request loop: round-robin across models, retrying
/// under the typed [`RetryPolicy`] (transport failures, OVERLOADED,
/// WORKER_FAILED), verifying against the local golden when asked.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    addr: &str,
    t: usize,
    requests: usize,
    models: &[(String, Arc<CompiledModel>)],
    density: f64,
    signed: bool,
    seed: u64,
    verify: bool,
    deadline: Option<Duration>,
    retries: u32,
) -> Result<ClientTally, String> {
    let policy = RetryPolicy::default()
        .with_max_attempts(retries)
        .with_jitter_seed(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut client = Client::connect_with(addr, ClientTimeouts::all(Duration::from_secs(10)))
        .map_err(|e| format!("connection {t}: connect failed: {e}"))?
        .with_retry_policy(policy);
    let goldens: Vec<_> = if verify {
        models
            .iter()
            .map(|(_, m)| m.infer(BackendKind::Functional))
            .collect()
    } else {
        Vec::new()
    };
    let mut tally = ClientTally::default();
    for j in 0..requests {
        let m = (t + j) % models.len();
        let (name, model) = &models[m];
        let input = eie_core::nn::zoo::sample_activations(
            model.input_dim(),
            density,
            signed,
            seed.wrapping_add((t * requests + j) as u64),
        );
        // Shed load is an answer, not a failure: when even the retry
        // budget comes back OVERLOADED, wait out a micro-batch window
        // and offer the request again.
        let output = loop {
            let (response, stats) = client
                .infer_retrying(name, &input, deadline)
                .map_err(|e| format!("connection {t}: request {j} failed: {e}"))?;
            tally.retried += stats.retries as usize;
            if stats.recovered {
                tally.recovered += 1;
            }
            match response {
                Response::Output(output) => break Some(output),
                Response::Overloaded { .. } => {
                    tally.overloaded += 1;
                    thread::sleep(Duration::from_micros(500));
                }
                Response::Error {
                    code: ErrorCode::DeadlineExceeded,
                    ..
                } => {
                    tally.expired += 1;
                    break None;
                }
                other => {
                    return Err(format!(
                        "connection {t}: request {j} to {name:?} refused: {other:?}"
                    ))
                }
            }
        };
        let Some(output) = output else { continue };
        tally.served += 1;
        if verify {
            let golden = goldens[m].submit_one(&input);
            let expect: Vec<i16> = golden.outputs(0).iter().map(|q| q.raw()).collect();
            if output.outputs != expect {
                return Err(format!(
                    "verification FAILED: connection {t} request {j} to {name:?} \
                     diverged from the one-at-a-time functional golden run"
                ));
            }
            tally.verified += 1;
        }
    }
    Ok(tally)
}

/// The original self-driving mode: one model, in-process server,
/// generated load.
fn run_local(mut opts: Opts) -> Result<(), CliError> {
    let config = parse_policy(&mut opts)?;
    let requests: usize = opts.parsed(&["--requests"])?.unwrap_or(256);
    let qps: f64 = opts.parsed(&["--qps"])?.unwrap_or(0.0);
    let density: f64 = opts.parsed(&["--density"])?.unwrap_or(0.35);
    let signed = opts.flag("--signed");
    let seed: u64 = opts.parsed(&["--seed"])?.unwrap_or(1);
    let verify = opts.flag("--verify");
    let deadline_ms: Option<u64> = opts.parsed(&["--deadline-ms"])?;
    let positional = opts.finish(1)?;
    let path = positional
        .first()
        .ok_or_else(|| CliError::Usage("serve needs a model file (see --help)".into()))?;
    if requests == 0 {
        return Err(CliError::Usage("--requests must be positive".into()));
    }
    let deadline = match deadline_ms {
        Some(0) => return Err(CliError::Usage("--deadline-ms must be positive".into())),
        Some(ms) => Some(Duration::from_millis(ms)),
        None => None,
    };
    if !(0.0..=1.0).contains(&density) {
        return Err(CliError::Usage("--density must be in [0, 1]".into()));
    }
    if qps < 0.0 {
        return Err(CliError::Usage("--qps must be non-negative".into()));
    }

    let model = load_model(path)?;
    outln!("loaded    {model}");
    let golden = verify.then(|| model.clone());
    outln!("serving   {config}");
    outln!("lanes: {}", lane_isa());

    let inputs = sample_batch(&model, requests, density, signed, seed);
    let server = ModelServer::start(model, config);
    print_kernel_threads(server.config().backend);
    let served = server.model();
    if served.plans_built() == served.num_layers() {
        let blocks: Vec<String> = (0..served.num_layers())
            .map(|i| served.plan(i).blocks().len().to_string())
            .collect();
        outln!("plan blocks: {} (shared, per layer)", blocks.join(" / "));
    }
    outln!(
        "load      {requests} requests at {}",
        if qps > 0.0 {
            format!("{qps:.0} requests/s target")
        } else {
            "max speed (backpressure-paced)".to_string()
        }
    );

    // Open-loop pacing against absolute deadlines so a slow submit does
    // not silently shift the whole schedule; qps 0 submits back to back
    // and lets the bounded queue pace the stream.
    let started = Instant::now();
    let interval = (qps > 0.0).then(|| Duration::from_secs_f64(1.0 / qps));
    let mut responses = Vec::with_capacity(requests);
    for (i, input) in inputs.iter().enumerate() {
        if let Some(interval) = interval {
            let deadline = started + interval * i as u32;
            if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let mut submit_opts = SubmitOptions::default();
        if let Some(budget) = deadline {
            submit_opts = submit_opts.with_deadline(Instant::now() + budget);
        }
        let response = match server.submit_with(input, submit_opts) {
            Ok(response) => response,
            // A pre-expired deadline is a typed answer, not a CLI
            // failure; nothing to wait on.
            Err(eie_serve::SubmitError::DeadlineExceeded) => continue,
            Err(e) => {
                return Err(CliError::Runtime(format!(
                    "submit failed at request {i}: {e}"
                )))
            }
        };
        responses.push((i, response));
    }
    let offered_s = started.elapsed().as_secs_f64();

    let results: Vec<_> = responses.into_iter().map(|(i, r)| (i, r.wait())).collect();
    let stats = server.shutdown();

    let answered: Vec<_> = results
        .iter()
        .filter_map(|(i, r)| r.as_ref().ok().map(|result| (*i, result)))
        .collect();
    if let Some(golden) = &golden {
        let job = golden.infer(BackendKind::Functional);
        for (i, result) in &answered {
            if job.submit_one(&inputs[*i]).outputs(0) != &result.outputs[..] {
                return Err(CliError::Runtime(format!(
                    "verification FAILED: served output diverged from the \
                     one-at-a-time functional golden run at request {i}"
                )));
            }
        }
        outln!(
            "verified  {} responses bit-exact against the functional golden model",
            answered.len()
        );
    }

    outln!(
        "offered   {:.0} requests/s over {:.1} ms",
        requests as f64 / offered_s,
        offered_s * 1e3
    );
    print_serving_stats(&stats);
    // Every request must have a disposition: answered, or typed as
    // expired/failed. With no deadline and no faults this degenerates
    // to the old exact answered == offered check.
    if stats.requests + stats.expired + stats.failed != requests as u64 {
        return Err(CliError::Runtime(format!(
            "server answered {} of {requests} requests ({} expired, {} failed)",
            stats.requests, stats.expired, stats.failed
        )));
    }
    Ok(())
}
