//! The workspace's one differential oracle: every execution path runs
//! the same drawn case and must return the functional golden model's
//! `Q8p8` words, item for item.
//!
//! - **The generator**, [`arb_case`]: a chained stack of 1–3 layers,
//!   PEs ∈ {1, 2, 3, 4, 8}, a density, a shared or per-layer codebook,
//!   a batch from every lane-remainder class (`1..=2·LANE_WIDTH+1`,
//!   plus the multi-block 24, 25 and 33), an activation [`Mode`] and a
//!   serving [`Policy`].
//! - **The golden**: [`Functional`]'s stack, one item at a time, as
//!   [`Case::golden`] holds it.
//! - **The registry**, [`PATHS`]: each execution path as a name, a
//!   stride and a function from a case to its outputs.
//! - **The check**, [`assert_all_paths_agree`]: every path on the full
//!   batch and on item 0 alone; a mismatch names the path, the case,
//!   its draw, the item and the first differing word.
//!
//! The rule: **a new path is one `PATHS` entry.** It is then checked on
//! every axis the generator draws.
//!
//! [`cases`] draws a named, deterministic sequence of cases, optionally
//! restricted on the draw, and [`assert_paths_agree`] runs a selection
//! of the registry on one batch: `tests/oracle.rs` runs all of it, the
//! narrower property tests (`tests/prop.rs`, `tests/plan_prop.rs`, …)
//! each run the paths and draws they are named for. Each test binary
//! uses part of this module, hence the `dead_code` allowance.

#![allow(dead_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use eie::prelude::*;
use eie::run_stack_planned;
use eie::serve::protocol::Response;
use eie::serve::{Client, ModelRegistry, ModelServer, NetServer, ServerConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// One `Q8p8` vector per batch item: a case's inputs, or what a path
/// returns for them.
pub type Items = Vec<Vec<Q8p8>>;

/// How a case's weights and activations are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Non-negative activations, as a ReLU leaves them.
    Plain,
    /// Activations of either sign.
    Signed,
    /// Near-rail weights and activations: a few same-signed products
    /// reach the `Accum32` rails, so the order of the saturating adds is
    /// observable, and the rail-free proof must fail where they clamp.
    Saturating,
}

/// The serving policy the transport paths run a case under.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    pub backend: BackendKind,
    pub workers: usize,
    pub max_batch: usize,
    pub max_wait_us: u64,
    /// Submitter threads in process, client connections over the wire.
    pub submitters: usize,
    /// Models behind the network node.
    pub models: usize,
}

impl Policy {
    fn server_config(self) -> ServerConfig {
        ServerConfig::default()
            .with_backend(self.backend)
            .with_workers(self.workers)
            .with_max_batch(self.max_batch)
            .with_max_wait_us(self.max_wait_us)
            .with_queue_depth(64)
    }
}

/// Everything a case drew; printed with a mismatch.
#[derive(Debug, Clone)]
pub struct Draw {
    /// Layer widths, input first: 1–3 chained layers.
    pub dims: Vec<usize>,
    pub density: f64,
    pub seed: u64,
    pub pes: usize,
    pub shared_codebook: bool,
    pub batch: usize,
    pub mode: Mode,
    pub act_density: f64,
    pub policy: Policy,
}

/// A drawn case, built: the model, its quantized inputs and the golden
/// outputs. The model's plan slots stay empty, so every path that
/// clones it cuts its own plans.
#[derive(Debug, Clone)]
pub struct Case {
    pub draw: Draw,
    pub model: CompiledModel,
    pub inputs: Items,
    pub golden: Items,
}

/// The one strategy every property draws from.
pub fn arb_case() -> impl Strategy<Value = Case> {
    arb_draw().prop_map(Case::build)
}

/// `count` cases drawn deterministically under `label`, skipping draws
/// that `keep` rejects (before anything is compiled).
pub fn cases(label: &str, count: usize, keep: fn(&Draw) -> bool) -> impl Iterator<Item = Case> {
    let (strategy, mut rng) = (arb_draw(), TestRng::deterministic(label));
    std::iter::repeat_with(move || strategy.generate(&mut rng))
        .filter(keep)
        .take(count)
        .map(Case::build)
}

/// What [`arb_case`] draws, not yet built.
fn arb_draw() -> impl Strategy<Value = Draw> {
    let batch = prop_oneof![
        17 => 1usize..=2 * LANE_WIDTH + 1,
        1 => Just(24usize),
        1 => Just(25),
        1 => Just(33)
    ];
    let mode = prop_oneof![
        Just(Mode::Plain),
        Just(Mode::Signed),
        Just(Mode::Saturating)
    ];
    let backend = prop_oneof![
        Just(BackendKind::Functional),
        Just(BackendKind::CycleAccurate),
        Just(BackendKind::NativeCpu(2)),
    ];
    let policy = (
        backend,
        1usize..=3,
        1usize..=6,
        prop_oneof![Just(0u64), Just(100), Just(2000)],
        1usize..=4,
        1usize..=2,
    )
        .prop_map(
            |(backend, workers, max_batch, max_wait_us, submitters, models)| Policy {
                backend,
                workers,
                max_batch,
                max_wait_us,
                submitters,
                models,
            },
        );
    (
        proptest::collection::vec(4usize..48, 2..=4),
        0.05f64..0.5,
        any::<u64>(),
        prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(8)],
        any::<bool>(),
        batch,
        mode,
        0.1f64..1.0,
        policy,
    )
        .prop_map(
            |(dims, density, seed, pes, shared_codebook, batch, mode, act_density, policy)| Draw {
                dims,
                density,
                seed,
                pes,
                shared_codebook,
                batch,
                mode,
                act_density,
                policy,
            },
        )
}

/// xorshift64 from `seed`: the near-rail draws of [`Mode::Saturating`].
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A `rows × cols` matrix of the case's mode that compresses (an
/// all-zero matrix is rerolled).
fn weights(draw: &Draw, rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    if draw.mode == Mode::Saturating {
        // Three quarters of the cells at ±(100..128): every product is
        // about ±120·120, so two same-signed adds near a rail.
        let mut next = xorshift(seed);
        let mut cells = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if !next().is_multiple_of(4) {
                    let sign = if next().is_multiple_of(2) { 1.0 } else { -1.0 };
                    cells.push((r, c, sign * (100.0 + (next() % 28) as f32)));
                }
            }
        }
        if cells.is_empty() {
            cells.push((0, 0, 127.0));
        }
        return CsrMatrix::from_triplets(rows, cols, &cells);
    }
    let mut m = random_sparse(rows, cols, draw.density, seed);
    let mut reroll = seed;
    while m.nnz() == 0 {
        reroll = reroll.wrapping_add(0x9E37_79B9);
        m = random_sparse(rows, cols, draw.density.max(0.2), reroll);
    }
    m
}

/// The functional golden model's stack, one item at a time.
fn golden(model: &CompiledModel, inputs: &[Vec<Q8p8>]) -> Items {
    let layers: Vec<_> = model.layers().iter().map(PlannedLayer::Encoded).collect();
    let item = |x| run_stack_planned(&Functional::new(), &layers, std::slice::from_ref(x));
    inputs.iter().map(|x| item(x).remove(0).outputs).collect()
}

impl Case {
    fn build(draw: Draw) -> Case {
        let weights: Vec<CsrMatrix> = (0..draw.dims.len() - 1)
            .map(|i| {
                let (cols, rows) = (draw.dims[i], draw.dims[i + 1]);
                weights(&draw, rows, cols, draw.seed.wrapping_add(i as u64))
            })
            .collect();
        let refs: Vec<&CsrMatrix> = weights.iter().collect();
        let config = EieConfig::default().with_num_pes(draw.pes);
        let model = if draw.shared_codebook {
            CompiledModel::compile_shared_codebook(config, &refs)
        } else {
            CompiledModel::compile(config, &refs)
        };
        let cols = draw.dims[0];
        let act_seed = draw.seed.rotate_left(32);
        let inputs = (0..draw.batch as u64)
            .map(|i| match draw.mode {
                Mode::Saturating => {
                    let mut next = xorshift(act_seed.wrapping_add(i));
                    (0..cols)
                        .map(|_| {
                            if next().is_multiple_of(5) {
                                return Q8p8::ZERO;
                            }
                            let sign = if next().is_multiple_of(2) { 1.0 } else { -1.0 };
                            Q8p8::from_f32(sign * (90.0 + (next() % 38) as f32))
                        })
                        .collect()
                }
                mode => Q8p8::from_f32_slice(&eie::nn::zoo::sample_activations(
                    cols,
                    draw.act_density,
                    mode == Mode::Signed,
                    act_seed.wrapping_add(i),
                )),
            })
            .collect::<Items>();
        let golden = golden(&model, &inputs);
        Case {
            draw,
            model,
            inputs,
            golden,
        }
    }

    /// The case cut down to its first item.
    pub fn solo(&self) -> Case {
        Case {
            draw: self.draw.clone(),
            model: self.model.clone(),
            inputs: self.inputs[..1].to_vec(),
            golden: self.golden[..1].to_vec(),
        }
    }

    /// The inputs as the `f32` requests carry them (exact: every Q8.8
    /// word is an `f32`).
    pub fn requests(&self) -> Vec<Vec<f32>> {
        let item = |x: &Vec<Q8p8>| x.iter().map(|v| v.to_f32()).collect();
        self.inputs.iter().map(item).collect()
    }
}

/// A registered path: its name, its stride and the path itself. It
/// runs on every case whose index is a multiple of its stride.
pub type Path = (&'static str, usize, fn(&Case) -> Items);

/// The registry. The transports, which start threads and sockets, run
/// on every fourth and eighth case.
pub static PATHS: &[Path] = &[
    ("functional", 1, functional),
    ("cycle", 1, cycle),
    ("native:1", 1, native::<1>),
    ("native:2", 1, native::<2>),
    ("native:3", 1, native::<3>),
    ("native:4", 1, native::<4>),
    ("native:5", 1, native::<5>),
    ("native:3/cut:1", 1, coarse_cut),
    ("artifact:csc-nibble", 1, artifact::<0>),
    ("artifact:huffman-packed", 1, artifact::<1>),
    ("artifact:bit-plane", 1, artifact::<2>),
    ("load:csc-nibble", 1, load::<0>),
    ("load:huffman-packed", 1, load::<1>),
    ("load:bit-plane", 1, load::<2>),
    ("server", 4, server),
    ("net", 8, net),
];

/// Runs every path registered for case number `n` on the full batch and
/// on item 0 alone, and panics at the first word that differs from the
/// golden.
pub fn assert_all_paths_agree(case: &Case, n: usize) {
    let due = |name: &str| PATHS.iter().any(|p| p.0 == name && n.is_multiple_of(p.1));
    for case in [case, &case.solo()] {
        assert_paths_agree(case, n, due);
    }
}

/// Runs the registered paths that `select` names, whatever their stride,
/// on the case's batch as it is, and panics naming the path, case
/// number `n`, the batch, the draw, the item and the first differing
/// word.
pub fn assert_paths_agree(case: &Case, n: usize, select: impl Fn(&str) -> bool) {
    for &(name, _, path) in PATHS.iter().filter(|p| select(p.0)) {
        let batch = case.inputs.len();
        let at = || format!("path {name}, case {n}, batch {batch}, draw {:?}", case.draw);
        let got = catch_unwind(AssertUnwindSafe(|| path(case)))
            .unwrap_or_else(|_| panic!("{} panicked", at()));
        assert_eq!(got.len(), batch, "{}: item count", at());
        for (i, (got, want)) in got.iter().zip(&case.golden).enumerate() {
            let word = got.iter().zip(want).position(|(g, w)| g != w);
            let word = word.or((got.len() != want.len()).then(|| got.len().min(want.len())));
            if let Some(w) = word {
                panic!(
                    "{}: item {i} differs from the golden at word {w} of {}: {:?} != {:?}",
                    at(),
                    want.len(),
                    got.get(w),
                    want.get(w)
                );
            }
        }
    }
}

/// `model` run on `backend` through an [`InferenceJob`].
fn job(model: &CompiledModel, backend: BackendKind, case: &Case) -> Items {
    let result = model.infer(backend).energy(false).submit(&case.requests());
    (0..case.inputs.len())
        .map(|i| result.outputs(i).to_vec())
        .collect()
}

/// The golden's backend on the whole batch at once.
fn functional(case: &Case) -> Items {
    job(&case.model, BackendKind::Functional, case)
}

fn cycle(case: &Case) -> Items {
    job(&case.model, BackendKind::CycleAccurate, case)
}

/// The native kernel on `T` threads, on the model's plans cut for it.
fn native<const T: usize>(case: &Case) -> Items {
    let model = case.model.clone();
    let outputs = job(&model, BackendKind::NativeCpu(T), case);
    for i in 0..model.num_layers() {
        let plan = model.plan(i);
        assert!(plan.blocks().len() >= T.min(plan.rows()), "cut for {T}");
    }
    outputs
}

/// A plan cut for one thread, walked as is by a three-thread engine.
fn coarse_cut(case: &Case) -> Items {
    let model = case.model.clone();
    for i in 0..model.num_layers() {
        model.plan(i);
    }
    job(&model, BackendKind::NativeCpu(3), case)
}

/// The case's layers stored under `codec`.
fn recoded(model: &CompiledModel, codec: WeightCodecKind) -> CompiledModel {
    CompiledModel::from_layers(model.config().with_codec(codec), model.layers().to_vec())
        .with_name(codec.name())
}

/// `to_bytes` → `from_bytes` under codec number `C`, then the native
/// kernel. csc-nibble writes a version-1 container, the others version 2.
fn artifact<const C: usize>(case: &Case) -> Items {
    let codec = WeightCodecKind::ALL[C];
    let model = recoded(&case.model, codec);
    let bytes = model.to_bytes();
    assert_eq!(
        bytes.len(),
        model.artifact_bytes(),
        "{codec}: predicted size"
    );
    let version: u16 = if codec == WeightCodecKind::CscNibble {
        1
    } else {
        2
    };
    assert_eq!(
        bytes[4..6],
        version.to_le_bytes(),
        "{codec}: container version"
    );
    let loaded = CompiledModel::from_bytes(&bytes).unwrap_or_else(|e| panic!("{codec}: {e}"));
    assert_eq!(loaded, model, "{codec}: load is not the identity");
    assert!(
        loaded.to_bytes() == bytes,
        "{codec}: bytes changed in a roundtrip"
    );
    job(&loaded, BackendKind::NativeCpu(2), case)
}

/// The served load under codec number `C`: the stored bytes straight
/// to plans cut for `NativeCpu(C + 1)` (no encoded layer built), which
/// must be the plans of the decoded layers, then walked by that kernel.
fn load<const C: usize>(case: &Case) -> Items {
    let codec = WeightCodecKind::ALL[C];
    let backend = BackendKind::NativeCpu(C + 1);
    let bytes = recoded(&case.model, codec).to_bytes();
    let served =
        CompiledModel::load_served(&bytes, backend).unwrap_or_else(|e| panic!("{codec}: {e}"));
    assert!(served.layers.is_empty(), "{codec}: encoded layers kept");
    for (plan, layer) in served.plans.iter().zip(case.model.layers()) {
        assert_eq!(
            **plan,
            LayerPlan::build_with_blocks(layer, C + 1),
            "{codec}"
        );
    }
    let engine = backend.instantiate(&served.config);
    let runs = run_stack_planned(engine.as_ref(), &served.planned_layers(), &case.inputs);
    runs.into_iter().map(|run| run.outputs).collect()
}

/// An in-process [`ModelServer`] under the case's policy, fed by
/// concurrent submitters that each own an interleaved slice of the
/// batch.
fn server(case: &Case) -> Items {
    let policy = case.draw.policy;
    let server = ModelServer::start(case.model.clone(), policy.server_config());
    let requests = case.requests();
    let mut outputs = vec![Vec::new(); requests.len()];
    std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..policy.submitters)
            .map(|t| {
                let (server, requests) = (&server, &requests);
                scope.spawn(move || {
                    let mine = (t..requests.len()).step_by(policy.submitters);
                    let serve = |i: usize| server.submit(&requests[i]).unwrap().wait().unwrap();
                    mine.map(|i| (i, serve(i).outputs)).collect::<Vec<_>>()
                })
            })
            .collect();
        for (i, out) in submitters.into_iter().flat_map(|s| s.join().unwrap()) {
            outputs[i] = out;
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests as usize, requests.len());
    assert!(stats.max_coalesced <= policy.max_batch);
    outputs
}

/// A loopback [`NetServer`] holding the case's model once or twice
/// (`m0` in a version-1 container, `m1` in a version-2 one), fed by
/// concurrent clients. Items alternate between no deadline, sent as a
/// version-1 INFER frame, and a generous one, sent as version 2.
fn net(case: &Case) -> Items {
    let policy = case.draw.policy;
    let registry = ModelRegistry::new(policy.server_config());
    for m in 0..policy.models {
        let model = recoded(&case.model, WeightCodecKind::ALL[m]);
        registry.register_model(format!("m{m}"), &model).unwrap();
    }
    let node = NetServer::bind("127.0.0.1:0", registry).expect("bind");
    let addr = node.local_addr();
    let requests = case.requests();
    let mut outputs = vec![Vec::new(); requests.len()];
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..policy.submitters)
            .map(|t| {
                let requests = &requests;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut serve = |i: usize| {
                        let model = format!("m{}", i / 2 % policy.models);
                        let deadline = (i % 2 == 1).then_some(Duration::from_secs(60));
                        match client.infer_with(&model, &requests[i], deadline, 0) {
                            Ok(Response::Output(out)) => {
                                out.outputs.iter().map(|&w| Q8p8::from_raw(w)).collect()
                            }
                            other => panic!("item {i} to {model}: {other:?}"),
                        }
                    };
                    let mine = (t..requests.len()).step_by(policy.submitters);
                    mine.map(|i| (i, serve(i)))
                        .collect::<Vec<(usize, Vec<Q8p8>)>>()
                })
            })
            .collect();
        for (i, out) in clients.into_iter().flat_map(|c| c.join().unwrap()) {
            outputs[i] = out;
        }
    });
    let stats = node.stop();
    assert_eq!(stats.requests as usize, requests.len());
    assert!(stats.max_coalesced <= policy.max_batch);
    outputs
}
