//! Layer probes of a traced run: the harness calls each layer's public
//! functions on its own thread, on the workload's own model, and records
//! a span around every call. This is how a request's in-server stages
//! are priced from outside until the program traces itself.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use eie_core::compress::{EncodedLayer, LayerPlan};
use eie_core::fixed::Q8p8;
use eie_core::nn::zoo::{BenchLayer, DEFAULT_SEED};
use eie_core::sim::functional;
use eie_core::{run_stack_planned, Backend, BackendKind, CompiledModel};
use eie_serve::protocol::{Request, Response};
use eie_serve::{ModelRegistry, ModelServer, ServerConfig};

use crate::drive::Tally;
use crate::spans::Tracer;
use crate::stack::Prepared;
use crate::traced::Exchange;

/// Inputs of the kernel probes: a fixed set at the zoo's seed, so the
/// exact counts (MACs, live columns) repeat bit for bit whatever
/// `--seed` says.
pub const PROBE_INPUTS: usize = 8;

/// Steady-state submissions timed on each freshly started server.
const STEADY_SUBMITS: usize = 4;

/// Calls `f` until `budget` is spent, at least `min` times.
fn repeat_for(budget: Duration, min: usize, mut f: impl FnMut(u64)) {
    let started = Instant::now();
    let mut rep = 0;
    while rep < min as u64 || started.elapsed() < budget {
        f(rep);
        rep += 1;
    }
}

/// Exact, timing-free numbers of the workload's model.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactCounts {
    pub plan_bytes: usize,
    pub plan_entries: usize,
    /// Mean MACs one request issues, over the probe inputs.
    pub macs_per_req: f64,
    /// Non-zero activations over all activations entering a layer.
    pub live_cols_share: f64,
}

/// The fixed probe inputs, quantized, with their goldens from the
/// functional model and the exact counts.
pub struct ProbeSet {
    pub inputs: Vec<Vec<Q8p8>>,
    pub goldens: Vec<Vec<i16>>,
    pub counts: ExactCounts,
}

pub fn probe_set(model: &CompiledModel, first_layer: &BenchLayer) -> ProbeSet {
    let inputs: Vec<Vec<Q8p8>> = first_layer
        .sample_activation_batch(DEFAULT_SEED, PROBE_INPUTS)
        .iter()
        .map(|input| Q8p8::from_f32_slice(input))
        .collect();
    let (mut macs, mut live, mut cols) = (0u64, 0usize, 0usize);
    let mut goldens = Vec::new();
    for input in &inputs {
        let mut acts = input.clone();
        for (i, layer) in model.layers().iter().enumerate() {
            macs += functional::workload_macs(layer, &acts);
            live += acts.iter().filter(|a| !a.is_zero()).count();
            cols += acts.len();
            acts = functional::execute(layer, &acts, i + 1 < model.num_layers());
        }
        goldens.push(acts.iter().map(|v| v.raw()).collect());
    }
    let plans: Vec<_> = (0..model.num_layers()).map(|i| model.plan(i)).collect();
    ProbeSet {
        inputs,
        goldens,
        counts: ExactCounts {
            plan_bytes: plans.iter().map(|p| p.resident_bytes()).sum(),
            plan_entries: plans.iter().map(|p| p.total_entries()).sum(),
            macs_per_req: macs as f64 / PROBE_INPUTS as f64,
            live_cols_share: live as f64 / cols as f64,
        },
    }
}

/// The cold path, stage by stage, the way a registry eviction re-pays
/// it: read the artifact, decode and validate it, start a server,
/// answer a first request (plan build and first dispatch happen inside
/// it), a few steady ones, and shut the server down as a victim would
/// be. Alternates over the workload's artifacts.
pub fn cold_replay(
    tracer: &mut Tracer,
    tally: &mut Tally,
    prepared: &Prepared,
    paths: &[PathBuf],
    config: ServerConfig,
    budget: Duration,
) {
    repeat_for(budget, 2, |rep| {
        let id = Some(rep);
        let which = rep as usize % paths.len();
        let root = tracer.open("cold_replay", None, id);
        let bytes = tracer.time("core.artifact.read", Some(root), id, || {
            std::fs::read(&paths[which]).expect("read the artifact")
        });
        let model = tracer.time("core.artifact.from_bytes", Some(root), id, || {
            CompiledModel::from_bytes(&bytes).expect("the saved artifact decodes")
        });
        drop(bytes);
        let server = tracer.time("serve.server.start", Some(root), id, || {
            ModelServer::start(model, config)
        });
        for i in 0..=STEADY_SUBMITS {
            let span = if i == 0 {
                tracer.open("serve.server.first_request", Some(root), id)
            } else {
                tracer.open("serve.server.steady_request", Some(root), id)
            };
            let handle = tracer.time("serve.server.submit", Some(span), id, || {
                server.submit(&prepared.inputs[i]).expect("submission")
            });
            let result = tracer.time("serve.server.wait", Some(span), id, || handle.wait());
            tracer.close(span);
            let result = result.expect("a replayed request");
            let words = result.outputs.iter().map(|v| v.raw());
            tally.check(&prepared.name, rep, &prepared.goldens[which][i], words);
        }
        tracer.time("serve.server.shutdown", Some(root), id, || {
            server.shutdown()
        });
        tracer.close(root);
    });
}

/// Codec decode and plan build on the model's layers, each stage on its
/// own. Returns the stored bytes of the layers in the model's codec.
pub fn compress_probes(tracer: &mut Tracer, model: &CompiledModel, budget: Duration) -> usize {
    let codec = model.config().codec.codec();
    let images: Vec<Vec<u8>> = model.layers().iter().map(|l| codec.encode(l)).collect();
    repeat_for(budget, 2, |rep| {
        let id = Some(rep);
        let layers: Vec<EncodedLayer> = tracer.time("compress.codec_decode", None, id, || {
            images
                .iter()
                .map(|image| codec.decode(image).expect("the codec image decodes"))
                .collect()
        });
        assert_eq!(
            layers,
            model.layers(),
            "the codec round trip changed a layer"
        );
        tracer.time("compress.plan_build", None, id, || {
            layers.iter().map(LayerPlan::build).collect::<Vec<_>>()
        });
    });
    images.iter().map(Vec::len).sum()
}

/// The first `run_stack_planned` over freshly built plans: page faults
/// and cold caches that every later dispatch is spared.
pub fn first_dispatch(
    tracer: &mut Tracer,
    tally: &mut Tally,
    prepared: &Prepared,
    reference: &CompiledModel,
    probes: &ProbeSet,
    budget: Duration,
) {
    let backend = BackendKind::NativeCpu(1).instantiate(reference.config());
    let bytes = reference.to_bytes();
    repeat_for(budget, 2, |rep| {
        let model = CompiledModel::from_bytes(&bytes).expect("the artifact decodes");
        let planned = model.planned_layers();
        let runs = tracer.time("core.native.first_dispatch", None, Some(rep), || {
            run_stack_planned(backend.as_ref(), &planned, &probes.inputs[..1])
        });
        let words = runs[0].outputs.iter().map(|v| v.raw());
        tally.check(&prepared.name, rep, &probes.goldens[0], words);
    });
}

/// The kernel at batch `b`: the served chaining loop
/// (`core.infer.run_stack_planned.b<b>`), then the same layers called
/// one by one from the harness (`core.native.layers.b<b>` ⊃
/// `core.native.layer.b<b>.<name>`), so the chain's own cost is the
/// difference.
pub fn kernel(
    tracer: &mut Tracer,
    tally: &mut Tally,
    prepared: &Prepared,
    reference: &CompiledModel,
    probes: &ProbeSet,
    b: usize,
    budget: Duration,
) {
    let backend: Box<dyn Backend> = BackendKind::NativeCpu(1).instantiate(reference.config());
    let planned = reference.planned_layers();
    let batch: Vec<Vec<Q8p8>> = (0..b)
        .map(|i| probes.inputs[i % PROBE_INPUTS].clone())
        .collect();
    let names = &prepared.specs[0].layers;
    let mut check = |rep: u64, outputs: &[Q8p8]| {
        tally.check(
            &prepared.name,
            rep,
            &probes.goldens[0],
            outputs.iter().map(|v| v.raw()),
        );
    };
    repeat_for(budget, 3, |rep| {
        let id = Some(rep);
        let runs = tracer.time(
            &format!("core.infer.run_stack_planned.b{b}"),
            None,
            id,
            || run_stack_planned(backend.as_ref(), &planned, &batch),
        );
        check(rep, &runs[0].outputs);

        let root = tracer.open(&format!("core.native.layers.b{b}"), None, id);
        let mut current = batch.clone();
        for (i, layer) in planned.iter().enumerate() {
            let relu = i + 1 < planned.len();
            let name = format!("core.native.layer.b{b}.{}", names[i].name());
            let runs = tracer.time(&name, Some(root), id, || {
                backend.run_layer_batch_planned(*layer, &current, relu)
            });
            current = runs.into_iter().map(|run| run.outputs).collect();
        }
        tracer.close(root);
        check(rep, &current[0]);
    });
}

/// The two codec stages that run inside the server, replayed on the
/// bytes of real exchanges: request decode and response encode.
pub fn protocol(tracer: &mut Tracer, exchanges: &[Exchange]) {
    for (i, exchange) in exchanges.iter().enumerate() {
        let id = Some(i as u64);
        let decoded = tracer.time("serve.protocol.decode_req", None, id, || {
            Request::from_body(&exchange.frame[4..])
        });
        assert!(decoded.is_ok(), "a frame the server answered must decode");
        let response = Response::Output(exchange.report.clone());
        tracer.time("serve.protocol.encode_resp", None, id, || {
            response.to_frame()
        });
    }
}

/// Acquires of a resident model: the registry's share of every request.
pub fn acquire_hit(tracer: &mut Tracer, registry: &ModelRegistry, name: &str) {
    assert!(registry.is_resident(name), "{name} should be resident");
    for rep in 0..200 {
        let lease = tracer.time("serve.registry.acquire_hit", None, Some(rep), || {
            registry.acquire(name)
        });
        drop(lease.expect("a resident model is acquired"));
    }
}
