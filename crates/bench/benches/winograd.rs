//! Winograd F(2x2,3x3) vs GEMM convolution: functional host wall-clock at
//! 4-bit on a mid-size 3x3 layer (the modeled comparison is Fig. 8). The
//! one-shot functions transform and pack the weights on every call; the
//! warm `ArmEngine::conv` cases run them from the prepack cache and the
//! workspace arena, as repeated inference does.
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lowbit::{ArmAlgo, ArmEngine};
use lowbit_conv_arm::{gemm_conv, winograd_conv};
use lowbit_tensor::{BitWidth, ConvShape, Layout, QTensor};

fn bench_winograd(c: &mut Criterion) {
    let shape = ConvShape::new(1, 16, 28, 28, 16, 3, 1, 1);
    let input = QTensor::random(
        (shape.batch, shape.c_in, shape.h, shape.w),
        Layout::Nchw,
        BitWidth::W4,
        4,
    );
    let weights = QTensor::random(
        (shape.c_out, shape.c_in, 3, 3),
        Layout::Nchw,
        BitWidth::W4,
        5,
    );
    let engine = ArmEngine::cortex_a53();
    let mut group = c.benchmark_group("winograd_vs_gemm_4bit");
    group.sample_size(10);
    group.throughput(Throughput::Elements(shape.macs()));
    group.bench_function("gemm_conv", |b| {
        b.iter(|| gemm_conv(&input, &weights, &shape).acc.data()[0])
    });
    group.bench_function("winograd_conv", |b| {
        b.iter(|| winograd_conv(&input, &weights, &shape).acc.data()[0])
    });
    let warm = [("engine_gemm_warm", ArmAlgo::Gemm), ("engine_winograd_warm", ArmAlgo::Winograd)];
    for (name, algo) in warm {
        let _ = engine.conv(&input, &weights, &shape, algo); // fills the cache and arena
        group.bench_function(name, |b| {
            b.iter(|| engine.conv(&input, &weights, &shape, algo).acc.data()[0])
        });
    }
    group.finish();
}

criterion_group!(benches, bench_winograd);
criterion_main!(benches);
