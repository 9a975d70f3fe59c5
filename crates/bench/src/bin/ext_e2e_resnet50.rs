//! Extension experiment: end-to-end ResNet-50 convolution time (all 52
//! counted layers, batch 1) per bit width on both platforms — the network
//! view the paper's per-layer figures imply but never total.
use lowbit::prelude::*;
use lowbit::ArmAlgo;
use lowbit_bench::harness::Table;
use lowbit_models::resnet50_with_counts;

fn main() {
    let arm = ArmEngine::cortex_a53();
    let gpu = GpuEngine::rtx2080ti();
    println!("End-to-end ResNet-50 convolution stack (52 layers, batch 1)\n");
    let mut table = Table::new(vec![
        "bits", "ARM auto ms", "vs ncnn8", "GPU tuned us", "vs cuDNN8",
    ]);
    let layers = resnet50_with_counts();
    let ncnn_total: f64 = layers
        .iter()
        .map(|(l, c)| {
            *c as f64 * arm.estimate_millis_cold(BitWidth::W8, &l.shape, ArmAlgo::NcnnBaseline)
        })
        .sum();
    let cudnn_total: f64 = layers
        .iter()
        .map(|(l, c)| {
            *c as f64
                * lowbit::conv_gpu::baselines::cudnn_like(&l.shape, gpu.device()).total_us()
        })
        .sum();
    for bits in BitWidth::ALL {
        let arm_total: f64 = layers
            .iter()
            .map(|(l, c)| *c as f64 * arm.estimate_millis_cold(bits, &l.shape, ArmAlgo::Auto))
            .sum();
        let gpu_total = GpuEngine::precision_for(bits).map(|_| {
            layers
                .iter()
                .map(|(l, c)| {
                    *c as f64 * gpu.estimate(&l.shape, bits, Tuning::AutoSearch).total_us()
                })
                .sum::<f64>()
        });
        table.push_row(vec![
            bits.to_string(),
            format!("{arm_total:.1}"),
            format!("{:.2}x", ncnn_total / arm_total),
            gpu_total.map(|t| format!("{t:.0}")).unwrap_or_else(|| "n/a".into()),
            gpu_total
                .map(|t| format!("{:.2}x", cudnn_total / t))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    table.print();
    println!("\nBaselines: ncnn-8bit {ncnn_total:.1} ms (ARM), cuDNN-dp4a {cudnn_total:.0} us (GPU).");
    println!("(The ARM Auto policy switches the four 3x3/s1 shapes to Winograd at 4-6 bit.)");
}
