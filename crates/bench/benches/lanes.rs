//! Criterion micro-benchmarks of the batch-lane plan kernel: the warm
//! fused path against the same items as single-item walks.
//!
//! `kernel_sweep` is the recorded experiment (BENCH_kernel.json); these
//! benches are the developer-loop view. The group label records which
//! instantiation of the lane walk the host dispatched to (`lane_isa`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eie_core::prelude::*;

fn setup() -> (EncodedLayer, Vec<Vec<Q8p8>>) {
    // Same shape as benches/plans.rs so the two files read side by
    // side: 1024×1024 at AlexNet-FC7 density, 8 PEs, batch 16.
    let sparse = random_sparse(1024, 1024, 0.09, 42);
    let enc = compress(&sparse, CompressConfig::with_pes(8));
    let batch: Vec<Vec<Q8p8>> = (0..16u64)
        .map(|i| {
            Q8p8::from_f32_slice(&eie_core::nn::zoo::sample_activations(
                1024,
                0.35,
                false,
                8 + i,
            ))
        })
        .collect();
    (enc, batch)
}

fn bench_lane_vs_single(c: &mut Criterion) {
    let (enc, batch) = setup();
    let mut group = c.benchmark_group(format!("lane_vs_single/{}", lane_isa()));
    group.throughput(Throughput::Elements(
        (enc.total_entries() * batch.len()) as u64,
    ));
    for threads in [1usize, 4] {
        let engine = NativeCpu::with_threads(threads);
        // Warm outside the measurement: plan built, pool spawned, lane
        // scratch at its high-water mark.
        let _ = engine.run_layer_batch(&enc, &batch, false);

        // The same 16 items as single-item walks: what the lanes must
        // beat, since each walk keeps its own zero-skip.
        group.bench_function(BenchmarkId::new("batch16_singles", threads), |b| {
            b.iter(|| {
                batch
                    .iter()
                    .map(|item| engine.run_layer(&enc, item, false))
                    .collect::<Vec<_>>()
            })
        });
        group.bench_function(BenchmarkId::new("batch16_lane", threads), |b| {
            b.iter(|| engine.run_layer_batch(&enc, &batch, false))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lane_vs_single);
criterion_main!(benches);
