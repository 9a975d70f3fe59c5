//! Sweep every distinct ResNet-50 convolution layer on the ARM engine at a
//! chosen bit width, printing the per-layer algorithm choice, modeled time,
//! and speedup over the ncnn-like 8-bit baseline (a Fig. 7 + Fig. 8 combo).
//!
//! ```sh
//! cargo run --release --example resnet50_arm            # default: 4-bit
//! cargo run --release --example resnet50_arm -- 2       # any of 2..=8
//! ```

use lowbit::prelude::*;
use lowbit::ArmAlgo;
use lowbit_models::resnet50;
use lowbit_suite::arm_tensors;

fn main() {
    let bits = std::env::args()
        .nth(1)
        .map(|s| s.parse::<u8>().expect("bit width must be a number"))
        .map(|b| BitWidth::new(b).expect("bit width must be 2..=8"))
        .unwrap_or(BitWidth::W4);

    let engine = ArmEngine::cortex_a53();
    println!("ResNet-50 layer sweep at {bits} on the Cortex-A53 model (batch 1)\n");
    println!(
        "{:<8} {:>28} {:>10} {:>10} {:>9} {:>9}",
        "layer", "shape", "algo", "ncnn8 ms", "ours ms", "speedup"
    );

    let mut total_ours = 0.0;
    let mut total_ncnn = 0.0;
    for l in resnet50() {
        let algo = engine.select_algo(bits, &l.shape);
        let ours = engine.estimate_millis_cold(bits, &l.shape, ArmAlgo::Auto);
        let ncnn = engine.estimate_millis_cold(BitWidth::W8, &l.shape, ArmAlgo::NcnnBaseline);
        total_ours += ours;
        total_ncnn += ncnn;
        println!(
            "{:<8} {:>28} {:>10} {:>10.3} {:>9.3} {:>8.2}x",
            l.name,
            format!("{}", l.shape),
            format!("{algo:?}"),
            ncnn,
            ours,
            ncnn / ours
        );
    }
    println!(
        "\nAll conv layers: ours {total_ours:.1} ms vs ncnn-8bit {total_ncnn:.1} ms ({:.2}x end-to-end)",
        total_ncnn / total_ours
    );

    // Prove the numbers are backed by a real kernel: execute one layer
    // functionally (cropped spatially to keep the example fast) and check
    // against the direct-convolution oracle.
    let probe = resnet50()[1].shape.cropped(14);
    let (input, weights) = arm_tensors(&probe, bits, 7);
    let out = engine.conv(&input, &weights, &probe, ArmAlgo::Auto);
    let oracle = lowbit::conv_arm::direct_conv(&input, &weights, &probe);
    assert_eq!(out.acc.data(), oracle.data());
    println!("verified: {probe} executes bit-exactly via {:?}", out.algo);
}
