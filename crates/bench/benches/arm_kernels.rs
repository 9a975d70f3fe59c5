//! Host wall-clock throughput of the ARM micro-kernels per bit width,
//! through the one-shot GEMMs: `gemm`, `gemm_narrow` and `gemm_sdot` pack A
//! and run the engine's tiled driver at one thread, storing the row-major
//! result straight from the micro-tiles. The drain cadence (SADDW ratio)
//! is visible in real time, not just in the model: lower bit widths drain
//! less and run faster per MAC.
//!
//! `arm_driver_prepacked` times the tiled driver alone: `gemm_parallel_cm`
//! at one thread on prepacked A with a warm workspace and no packing of A.
//! It covers one shape per tile kind, taken from the benchmark workloads.
//! Its `elem/s` figure is MAC/s.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lowbit_qgemm::narrow::pack_a_narrow;
use lowbit_qgemm::{gemm, pack_a, GemmWorkspace, ParallelConfig, Scheme, SharedWeights};
use lowbit_tensor::BitWidth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_micro_kernels(c: &mut Criterion) {
    let (m, k, n) = (64, 512, 64);
    let mut group = c.benchmark_group("arm_gemm_by_bits");
    group.sample_size(10);
    group.throughput(Throughput::Elements((m * k * n) as u64));
    let mut rng = StdRng::seed_from_u64(1);
    for bits in BitWidth::ALL {
        let a: Vec<i8> = (0..m * k).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
        let scheme = Scheme::for_bits(bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| gemm(&scheme, &a, &b, m, k, n).c[0])
        });
    }
    group.finish();

    let mut group = c.benchmark_group("arm_baselines_and_extensions");
    group.sample_size(10);
    group.throughput(Throughput::Elements((m * k * n) as u64));
    let a: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-127..=127)).collect();
    let b: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-127..=127)).collect();
    group.bench_function("ncnn16", |bench| {
        bench.iter(|| lowbit_qgemm::gemm::gemm_ncnn(&a, &b, m, k, n).c[0])
    });
    let scheme8 = Scheme::for_bits(BitWidth::W8);
    group.bench_function("narrow_8x4_w8", |bench| {
        bench.iter(|| lowbit_qgemm::gemm_narrow(&scheme8, &a, &b, m, k, n).c[0])
    });
    group.bench_function("sdot_v82_w8", |bench| {
        bench.iter(|| lowbit_qgemm::gemm_sdot(&a, &b, m, k, n).c[0])
    });
    group.finish();
}

fn bench_driver_prepacked(c: &mut Criterion) {
    // (label, bits, narrow tile, M x K x N): W4 wide is a bottleneck-w4
    // 1x1 expand, W8 narrow a dense-w8 3x3 growth conv, W2 MLA the
    // resnet50-layers-w2 7x7/s2 stem.
    let shapes = [
        ("w4_wide_256x64x3136", BitWidth::W4, false, (256, 64, 3136)),
        ("w8_narrow_32x1152x784", BitWidth::W8, true, (32, 1152, 784)),
        ("w2_mla_64x147x12544", BitWidth::W2, false, (64, 147, 12544)),
    ];
    let mut group = c.benchmark_group("arm_driver_prepacked");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    for (label, bits, narrow, (m, k, n)) in shapes {
        let a: Vec<i8> = (0..m * k).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
        let scheme = Scheme::for_bits(bits);
        let (wide, narrow_a) = (pack_a(&a, m, k), pack_a_narrow(&a, m, k));
        let weights =
            if narrow { SharedWeights::Narrow(&narrow_a) } else { SharedWeights::Wide(&wide) };
        let cfg = ParallelConfig::with_threads(1);
        let mut ws = GemmWorkspace::new();
        group.throughput(Throughput::Elements((m * k * n) as u64));
        group.bench_function(label, |bench| {
            bench.iter(|| {
                lowbit_qgemm::parallel::gemm_parallel_cm(&scheme, weights, &b, k, n, &cfg, &mut ws)
                    [0]
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_micro_kernels, bench_driver_prepacked);
criterion_main!(benches);
