//! Ablation A3: the Sec. 4.3 memory-optimization stack. Prints the modeled
//! per-optimization impact on a representative layer, then benchmarks the
//! functional mma path and the profile-run search cost (which the paper
//! calls negligible).
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lowbit_conv_gpu::{auto_search, default_config, ConvGpuPlan, MemOpts};
use lowbit_tensor::{BitWidth, ConvShape, Layout, QTensor};
use turing_sim::mma::mma_m8n8k16_s8;
use turing_sim::{Device, Precision};

fn bench_gpu(c: &mut Criterion) {
    let device = Device::rtx2080ti();
    let shape = ConvShape::new(1, 256, 14, 14, 256, 3, 1, 1);
    let base_plan = ConvGpuPlan::new(
        shape,
        default_config(Precision::TensorCoreInt8),
        Precision::TensorCoreInt8,
    );
    let mut plan = base_plan.clone();
    let full = plan.time(&device).total_us();
    eprintln!("memory-optimization ablation on {shape} (modeled, batch 1):");
    eprintln!("  all optimizations on : {full:.2} us");
    for (name, f) in [
        ("no int4-vector loads", Box::new(|o: &mut MemOpts| o.vector_loads = false) as Box<dyn Fn(&mut MemOpts)>),
        ("no smem reordering  ", Box::new(|o: &mut MemOpts| o.smem_reordered = false)),
        ("no double buffering ", Box::new(|o: &mut MemOpts| o.double_buffered = false)),
        ("no in-place epilogue", Box::new(|o: &mut MemOpts| o.in_place_epilogue = false)),
    ] {
        let mut opts = MemOpts::default();
        f(&mut opts);
        plan.opts = opts;
        let t = plan.time(&device).total_us();
        eprintln!("  {name}: {t:.2} us ({:.2}x slower)", t / full);
    }
    let _ = plan;

    // Functional mma fragment throughput.
    let a = [7i8; 128];
    let b = [-3i8; 128];
    let mut group = c.benchmark_group("gpu_kernels");
    group.sample_size(10);
    group.throughput(Throughput::Elements(8 * 8 * 16));
    group.bench_function("mma_m8n8k16_s8", |bench| {
        bench.iter(|| {
            let mut acc = [0i32; 64];
            mma_m8n8k16_s8(&a, &b, &mut acc);
            acc[0]
        })
    });
    group.finish();

    let small = ConvShape::new(1, 16, 8, 8, 16, 3, 1, 1);
    let input = QTensor::random((1, 16, 8, 8), Layout::Nhwc, BitWidth::W8, 6);
    let weights = QTensor::random((16, 16, 3, 3), Layout::Nhwc, BitWidth::W8, 7);
    let exec_plan = ConvGpuPlan::new(
        small,
        lowbit_conv_gpu::TileConfig { m_tile: 16, n_tile: 16, k_tile: 48, k_step: 16, warps_m: 1, warps_n: 1 },
        Precision::TensorCoreInt8,
    );
    let mut group = c.benchmark_group("gpu_functional");
    group.sample_size(10);
    group.throughput(Throughput::Elements(small.macs()));
    group.bench_function("implicit_gemm_execute", |bench| {
        bench.iter(|| exec_plan.execute(&input, &weights).0.data()[0])
    });
    group.bench_function("profile_run_search", |bench| {
        bench.iter(|| auto_search(&shape, Precision::TensorCoreInt8, &device).1.total_s)
    });
    group.finish();
}

criterion_group!(benches, bench_gpu);
criterion_main!(benches);
