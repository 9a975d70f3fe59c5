//! Host wall-clock throughput of the ARM micro-kernels per bit width,
//! through the one-shot GEMMs: `gemm` and `gemm_narrow` pack A and run the
//! engine's tiled driver at one thread, `gemm_sdot` packs and runs
//! `gemm_sdot_prepacked_cm`; each then transposes to row-major. The drain
//! cadence (SADDW ratio) is visible in real time, not just in the model:
//! lower bit widths drain less and run faster per MAC.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lowbit_qgemm::{gemm, Scheme};
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

criterion_group!(benches, bench_micro_kernels);
criterion_main!(benches);
