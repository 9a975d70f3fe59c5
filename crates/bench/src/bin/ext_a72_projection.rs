//! Extension experiment: the same Fig. 7 sweep on a Cortex-A72-class model.
//! On a bigger core the bulk-reshape overhead shrinks and loads stop
//! limiting the MLA scheme, so the low-bit advantage *grows* — evidence the
//! paper's Raspberry Pi 3B results are a conservative floor.
use lowbit::prelude::*;
use lowbit::ArmAlgo;
use lowbit_bench::harness::{mean, Table};
use lowbit_models::resnet50;
use neon_sim::CortexA72;

fn main() {
    let a53 = ArmEngine::cortex_a53();
    let a72 = ArmEngine::with_model(CortexA72::cost_model());
    println!("Fig. 7 sweep on Cortex-A53 (paper target) vs Cortex-A72-class model\n");
    let mut table = Table::new(vec!["bits", "A53 avg speedup", "A72 avg speedup"]);
    for bits in BitWidth::ALL {
        let speedups = |engine: &ArmEngine| -> Vec<f64> {
            resnet50()
                .iter()
                .map(|l| {
                    engine.estimate_millis_cold(BitWidth::W8, &l.shape, ArmAlgo::NcnnBaseline)
                        / engine.estimate_millis_cold(bits, &l.shape, ArmAlgo::Gemm)
                })
                .collect()
        };
        table.push_row(vec![
            bits.to_string(),
            format!("{:.2}x", mean(&speedups(&a53))),
            format!("{:.2}x", mean(&speedups(&a72))),
        ]);
    }
    table.print();
}
