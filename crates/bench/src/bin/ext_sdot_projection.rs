//! Extension experiment: the ARMv8.2 projection. Re-runs the Fig. 7 layer
//! sweep with the `SDOT` kernel (which ARMv8.1 lacks — the gap that
//! motivates the whole paper) against the same ncnn-like baseline, showing
//! how much of the drain-scheme machinery a newer ISA deletes.
use lowbit::prelude::*;
use lowbit::ArmAlgo;
use lowbit_bench::harness::{mean, Table};
use lowbit_models::resnet50;

fn main() {
    let engine = ArmEngine::cortex_a53();
    println!("ARMv8.2 projection: SDOT conv vs the v8.1 schemes (ResNet-50, batch 1)\n");
    let mut table = Table::new(vec![
        "layer", "ncnn8 ms", "sdot8", "v8.1 8-bit", "v8.1 2-bit",
    ]);
    let mut sdot_speedups = Vec::new();
    for l in resnet50() {
        let ncnn = engine.estimate_millis_cold(BitWidth::W8, &l.shape, ArmAlgo::NcnnBaseline);
        let sdot = engine.estimate_millis_cold(BitWidth::W8, &l.shape, ArmAlgo::GemmSdot);
        let v81_8 = engine.estimate_millis_cold(BitWidth::W8, &l.shape, ArmAlgo::Gemm);
        let v81_2 = engine.estimate_millis_cold(BitWidth::W2, &l.shape, ArmAlgo::Gemm);
        sdot_speedups.push(ncnn / sdot);
        table.push_row(vec![
            l.name.to_string(),
            format!("{ncnn:.3}"),
            format!("{:.2}x", ncnn / sdot),
            format!("{:.2}x", ncnn / v81_8),
            format!("{:.2}x", ncnn / v81_2),
        ]);
    }
    table.print();
    println!(
        "\nSDOT 8-bit avg {:.2}x over ncnn — 8-bit on v8.2 beats even 2-bit on v8.1,",
        mean(&sdot_speedups)
    );
    println!("which is why the paper scopes its schemes to the ARMv8.1 installed base.");
}
