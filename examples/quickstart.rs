//! Quickstart: run one extremely low-bit convolution on each platform.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lowbit::prelude::*;
use lowbit::ArmAlgo;
use lowbit_suite::{arm_tensors, gpu_tensors};

fn main() {
    // A mid-network ResNet-style layer, cropped so the functional kernels
    // finish instantly.
    let shape = ConvShape::new(1, 32, 14, 14, 32, 3, 1, 1);

    // --- ARM CPU path: 4-bit, automatic algorithm selection -------------
    let (input, weights) = arm_tensors(&shape, BitWidth::W4, 42);
    let arm = ArmEngine::cortex_a53();
    let out = arm.conv(&input, &weights, &shape, ArmAlgo::Auto);
    println!("ARM  : {shape}");
    println!(
        "       4-bit conv via {:?}, modeled {:.3} ms on the Cortex-A53 model",
        out.algo, out.millis
    );
    println!(
        "       first accumulators: {:?}",
        &out.acc.data()[..4.min(out.acc.data().len())]
    );

    // The same layer at every supported bit width (modeled time only).
    print!("       modeled ms by bit width:");
    for bits in BitWidth::ALL {
        print!(" {}={:.3}", bits, arm.estimate_millis(bits, &shape, ArmAlgo::Auto));
    }
    println!();

    // --- GPU path: 4-bit Tensor Core with tiling auto-search ------------
    let (input, weights) = gpu_tensors(&shape, BitWidth::W4, 42);
    let gpu = GpuEngine::rtx2080ti();
    let out = gpu.conv(&input, &weights, &shape, Tuning::AutoSearch);
    println!("GPU  : 4-bit mma.m8n8k32 conv, tile {:?}", out.cfg);
    println!(
        "       modeled {:.2} us ({} blocks/SM, {} wave(s))",
        out.time.total_us(),
        out.time.blocks_per_sm,
        out.time.waves
    );

    // Both engines computed the same logical convolution.
    let arm_acc = arm
        .conv(
            &arm_tensors(&shape, BitWidth::W4, 42).0,
            &arm_tensors(&shape, BitWidth::W4, 42).1,
            &shape,
            ArmAlgo::Gemm,
        )
        .acc;
    let gpu_sum: i64 = out.acc.data().iter().map(|&v| v as i64).sum();
    let arm_sum: i64 = arm_acc.data().iter().map(|&v| v as i64).sum();
    println!("check: accumulator checksums arm={arm_sum} gpu={gpu_sum} (same data, same math)");
    assert_eq!(arm_sum, gpu_sum);

    // --- Whole networks: compile a plan once, execute it many times -----
    let net = Network::demo(BitWidth::W4, 12, 9);
    let plan = Planner::for_arm(&arm)
        .with_gpu(&gpu, Tuning::Default)
        .compile(&net)
        .expect("demo network compiles");
    println!("plan : demo network, {} layers, predicted {:.3} ms", plan.layers().len(), plan.predicted_millis());
    for l in plan.layers() {
        println!("       {:<6} -> {} via {}", l.name, l.algo.backend(), l.algo);
    }
    let input = Tensor::zeros((1, 3, 12, 12), Layout::Nchw);
    let run = Executor::for_arm(&arm)
        .with_gpu(&gpu)
        .run(&plan, &net, &input)
        .expect("plan executes");
    println!("       executed: output {:?}, {:.3} modeled ms", run.output.dims(), run.total_millis);
}
