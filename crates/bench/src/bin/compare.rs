//! Developer tool: compare every ARM algorithm (and the GPU paths where the
//! bit width allows) on one convolution shape, with per-stage breakdowns.
//!
//! ```sh
//! cargo run --release -p lowbit-bench --bin compare -- 64 56 64 3 1 1 4
//! #                                  c_in hw c_out k stride pad bits
//! ```
//!
//! Each ARM algorithm gets two times, each naming its clock: the modeled
//! Cortex-A53 cold time, and the measured host wall time of a warm
//! `ArmEngine::conv` (min of [`RUNS`], on the host's dispatched vector ISA),
//! whose output is first checked bit-exact against `direct_conv` (Winograd's
//! at 5 and 6 bits, where it rounds by design, against `winograd_conv`).
use lowbit::conv_arm::{direct_conv, winograd::winograd_exact, winograd_conv};
use lowbit::prelude::*;
use lowbit::ArmAlgo;
use lowbit_bench::harness::Table;
use lowbit_isa::Isa;
use std::time::Instant;

/// Timed calls per algorithm; the minimum is reported.
const RUNS: usize = 5;

/// Host wall ms of `engine.conv` (min of [`RUNS`], after one warm-up call
/// that fills the prepack cache), panicking unless the output is bit-exact
/// against `oracle`, the output of `oracle_name`.
fn measure_host_ms(
    engine: &ArmEngine,
    input: &QTensor,
    weights: &QTensor,
    shape: &ConvShape,
    algo: ArmAlgo,
    (oracle, oracle_name): (&Tensor<i32>, &str),
) -> f64 {
    let warm = engine.conv(input, weights, shape, algo);
    assert_eq!(warm.acc.data(), oracle.data(), "{algo:?} disagrees with {oracle_name}");
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            let out = engine.conv(input, weights, shape, algo);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(out);
            ms
        })
        .fold(f64::INFINITY, f64::min)
}

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

    let input = QTensor::random((1, c_in, hw, hw), Layout::Nchw, bits, 1);
    let weights = QTensor::random((c_out, c_in, k, k), Layout::Nchw, bits, 2);
    let oracle = direct_conv(&input, &weights, &shape);
    let host_column = format!("host ms (min of {RUNS}, {}, x{})", Isa::host(), engine.threads());

    println!("Shape {shape} at {bits} (batch 1)\n");
    println!("ARM algorithms (modeled: Cortex-A53 cold; host: measured warm ArmEngine::conv):");
    let headers = vec!["algorithm", "modeled ms", &host_column, "stage breakdown (modeled)"];
    let mut table = Table::new(headers);
    for algo in ArmAlgo::CONCRETE {
        if !algo.applies(bits, &shape) {
            table.push_row(vec![format!("{algo:?}"), "n/a".into(), "n/a".into(), "-".into()]);
            continue;
        }
        let sched = lowbit::arm_schedule(algo, bits, &shape, false);
        let breakdown: Vec<String> = sched
            .stages
            .iter()
            .map(|s| format!("{} {:.2}", s.name, model.millis(s.cycles(&model))))
            .collect();
        let rounded = algo == ArmAlgo::Winograd && !winograd_exact(bits);
        let one_shot = rounded.then(|| winograd_conv(&input, &weights, &shape).acc);
        let check = one_shot.as_ref().map_or((&oracle, "direct_conv"), |w| (w, "winograd_conv"));
        let host_ms = measure_host_ms(&engine, &input, &weights, &shape, algo, check);
        let note = if rounded { " (rounds; checked against winograd_conv)" } else { "" };
        table.push_row(vec![
            format!("{algo:?}{note}"),
            format!("{:.3}", sched.millis(&model)),
            format!("{host_ms:.3}"),
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
