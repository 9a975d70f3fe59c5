//! Developer tool: compare every ARM algorithm (and the GPU paths where the
//! bit width allows) on one convolution shape, with per-stage breakdowns.
//!
//! ```sh
//! cargo run --release -p lowbit-bench --bin compare -- 64 56 64 3 1 1 4
//! #                                  c_in hw c_out k stride pad bits
//! ```
use lowbit::prelude::*;
use lowbit::ArmAlgo;
use lowbit_bench::harness::Table;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric args"))
        .collect();
    let (c_in, hw, c_out, k, stride, pad, bits) = match args.as_slice() {
        [a, b, c, d, e, f, g] => (*a, *b, *c, *d, *e, *f, *g as u8),
        [] => (64, 56, 64, 3, 1, 1, 4),
        _ => panic!("usage: compare [c_in hw c_out k stride pad bits]"),
    };
    let bits = BitWidth::new(bits).expect("bits in 2..=8");
    let shape = ConvShape::new(1, c_in, hw, hw, c_out, k, stride, pad);
    let engine = ArmEngine::cortex_a53();
    let model = *engine.model();

    println!("Shape {shape} at {bits} (batch 1)\n");
    println!("ARM algorithms (Cortex-A53 model):");
    let mut table = Table::new(vec!["algorithm", "modeled ms", "stage breakdown"]);
    let algos: Vec<(ArmAlgo, bool)> = vec![
        (ArmAlgo::Gemm, true),
        (ArmAlgo::GemmNarrow, !bits.uses_mla_scheme()),
        (ArmAlgo::GemmSdot, true),
        (
            ArmAlgo::Winograd,
            shape.winograd_applicable() && lowbit::conv_arm::winograd_supported(bits),
        ),
        (ArmAlgo::NcnnBaseline, true),
        (ArmAlgo::BitserialBaseline, bits == BitWidth::W2),
    ];
    for (algo, applicable) in algos {
        if !applicable {
            table.push_row(vec![format!("{algo:?}"), "n/a".into(), "-".into()]);
            continue;
        }
        let sched = lowbit::arm_schedule(algo, bits, &shape, false);
        let breakdown: Vec<String> = sched
            .stages
            .iter()
            .map(|s| format!("{} {:.2}", s.name, model.millis(s.cycles(&model))))
            .collect();
        table.push_row(vec![
            format!("{algo:?}"),
            format!("{:.3}", sched.millis(&model)),
            breakdown.join(", "),
        ]);
    }
    table.print();

    if let Some(precision) = GpuEngine::precision_for(bits) {
        let gpu = GpuEngine::rtx2080ti();
        println!("\nGPU (RTX 2080 Ti model, {precision:?}):");
        let default = gpu.estimate(&shape, bits, Tuning::Default);
        let tuned = gpu.estimate(&shape, bits, Tuning::AutoSearch);
        println!("  default tiling : {:.2} us", default.total_us());
        println!(
            "  auto-searched  : {:.2} us ({:.2}x, {} blocks/SM, {} waves)",
            tuned.total_us(),
            default.total_s / tuned.total_s,
            tuned.blocks_per_sm,
            tuned.waves
        );
    } else {
        println!("\nGPU: {bits} has no Tensor Core path (only 4/8-bit, Sec. 2.3)");
    }
}
