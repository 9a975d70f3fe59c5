//! Wall-clock thread scaling of the parallel GEMM-conv engine on the
//! ResNet-50 layer set: serial (1 thread) vs. 2 and 4 threads, through the
//! warm `ArmEngine` path (weights prepacked, workspace reused — each
//! iteration is a steady-state convolution that grows no buffer).
//!
//! On single-core CI hosts the scoped threads time-slice one core, so the
//! wall-clock curve is flat there; `BENCH_parallel.json` (see
//! `lowbit_bench::export`) carries the modeled Amdahl speedups alongside the
//! measured numbers for exactly that reason.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lowbit::prelude::*;
use lowbit::ArmAlgo;
use lowbit_models::resnet50;

fn bench_parallel_conv(c: &mut Criterion) {
    // A small but representative slice of the table: one 3x3 and one 1x1
    // from the late stages keep release-mode iteration times reasonable.
    let table = resnet50();
    let layers: Vec<_> = table
        .iter()
        .filter(|l| matches!(l.name, "conv15" | "conv17"))
        .collect();
    for layer in layers {
        let s = &layer.shape;
        let macs = s.c_out * s.c_in * s.kh * s.kw * s.out_h() * s.out_w();
        let input = QTensor::random((s.batch, s.c_in, s.h, s.w), Layout::Nchw, BitWidth::W4, 1);
        let weights =
            QTensor::random((s.c_out, s.c_in, s.kh, s.kw), Layout::Nchw, BitWidth::W4, 2);
        let mut group = c.benchmark_group(format!("gemm_conv_{}_by_threads", layer.name));
        group.sample_size(10);
        group.throughput(Throughput::Elements(macs as u64));
        for threads in [1usize, 2, 4] {
            let engine = ArmEngine::cortex_a53().with_threads(threads);
            // Warm up outside the timed region: pack the weights once and
            // grow the workspace to its high-water mark.
            engine.conv(&input, &weights, s, ArmAlgo::Gemm);
            group.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |bench, _| bench.iter(|| engine.conv(&input, &weights, s, ArmAlgo::Gemm).acc),
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_parallel_conv);
criterion_main!(benches);
