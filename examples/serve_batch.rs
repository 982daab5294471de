//! Serving a compressed model under live traffic — build once, load
//! many, one inference surface.
//!
//! Compiles a two-layer feed-forward model, saves the versioned `.eie`
//! artifact, then walks the two halves of the redesigned execution API:
//!
//! 1. **`CompiledModel::infer`** — the builder-style inference job:
//!    one surface for the host-speed `NativeCpu` kernel, the functional
//!    golden model, and the cycle-accurate simulator (with energy).
//! 2. **`ModelServer`** — the `eie-serve` request/response lifecycle:
//!    a bounded queue feeding backend workers through a dynamic
//!    micro-batcher, with per-request latency and queue-time metrics.
//!
//! Outputs are bit-identical everywhere: across backends, between
//! direct jobs and served requests, and however the micro-batcher
//! coalesced the stream.
//!
//! ```text
//! cargo run --release --example serve_batch
//! ```

use eie::prelude::*;
use eie::serve::{ModelServer, ServerConfig};

fn main() {
    // 1. Build once: a small two-layer network compiled into a .eie
    //    artifact on disk.
    let w1 = random_sparse(256, 256, 0.09, 1);
    let w2 = random_sparse(64, 256, 0.09, 2);
    let config = EieConfig::default().with_num_pes(16);
    let compiled = CompiledModel::compile(config, &[&w1, &w2]).with_name("serve demo");
    let path = std::env::temp_dir().join("serve_batch.eie");
    compiled.save(&path).expect("save artifact");

    // 2. Load many: serving starts from the validated artifact, never
    //    from f32 weights.
    let model = CompiledModel::load(&path).expect("load artifact");
    assert_eq!(model, compiled, "artifact roundtrip must be bit-exact");
    println!("loaded      : {model}");

    // 3. A batch of 32 requests at AlexNet FC7 activation density.
    let batch: Vec<Vec<f32>> = (0..32u64)
        .map(|i| eie::nn::zoo::sample_activations(256, 0.35, false, 40 + i))
        .collect();

    // 4. One inference surface, three engines. Native kernel first —
    //    the offline/bulk serving path.
    let native = model.infer(BackendKind::NativeCpu(0)).submit(&batch);
    println!(
        "infer native: {:.0} frames/s, batch wall {:.1} µs",
        native.frames_per_second(),
        native.time_us()
    );

    // 5. Same job on the golden model — bit-identical outputs.
    let golden = model.infer(BackendKind::Functional).submit(&batch);
    for i in 0..batch.len() {
        assert_eq!(native.outputs(i), golden.outputs(i), "bit-exactness broken");
    }
    println!(
        "functional  : outputs bit-identical for all {} items",
        batch.len()
    );

    // 6. What the accelerator itself would do, per frame (batch 1 —
    //    EIE's latency needs no batching; §VI-B), with priced energy.
    let hw = model
        .infer(BackendKind::CycleAccurate)
        .energy(true)
        .submit(&batch[..4]);
    println!(
        "EIE modelled: {:.2} µs/frame (p95 {:.2}), {:.0} frames/s, {:.3} µJ/frame",
        hw.mean_latency_us(),
        hw.p95(),
        hw.frames_per_second(),
        hw.energy_per_frame_uj()
            .expect("cycle backend prices energy")
    );
    for i in 0..4 {
        assert_eq!(hw.outputs(i), golden.outputs(i), "cycle model diverged");
    }

    // 7. Live serving: a ModelServer on the same artifact — bounded
    //    queue, two native workers, dynamic micro-batching.
    let server = ModelServer::load(
        &path,
        ServerConfig::default()
            .with_backend(BackendKind::NativeCpu(1))
            .with_workers(2)
            .with_max_batch(8)
            .with_max_wait_us(200),
    )
    .expect("serve artifact");
    let responses: Vec<_> = batch
        .iter()
        .map(|input| server.submit(input).expect("submit"))
        .collect();
    for (i, response) in responses.into_iter().enumerate() {
        let result = response.wait().expect("request failed");
        assert_eq!(
            result.outputs[..],
            *golden.outputs(i),
            "served output diverged from the golden model"
        );
    }
    let stats = server.shutdown();
    println!("served      : {stats}");

    let _ = std::fs::remove_file(&path);
    println!("done        : one artifact, one surface, same bits everywhere");
}
