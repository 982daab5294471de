//! Criterion micro-benchmark of plan build cost — paid once per layer
//! instance, on the cold path. The steady-state walks are benched in
//! `lanes.rs` and recorded by `kernel_sweep` (BENCH_kernel.json); this
//! bench is gated in CI with `cargo bench --no-run` so the plan build
//! can't rot unbenchmarked.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eie_core::prelude::*;

fn bench_plan_build(c: &mut Criterion) {
    // A 1024×1024 layer at AlexNet-FC7 density.
    let sparse = random_sparse(1024, 1024, 0.09, 42);
    let enc = compress(&sparse, CompressConfig::with_pes(8));
    let mut group = c.benchmark_group("plan_build");
    group.throughput(Throughput::Elements(enc.total_entries() as u64));
    group.bench_function(BenchmarkId::new("layer_plan_build", "1024x1024@9%"), |b| {
        b.iter(|| LayerPlan::build(&enc))
    });
    group.finish();
}

criterion_group!(benches, bench_plan_build);
criterion_main!(benches);
