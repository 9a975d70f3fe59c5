//! ARM-side experiments: Fig. 7/8/9/13/14/15.

use lowbit::prelude::*;
use lowbit::ArmAlgo;
use lowbit_models::{winograd_layers, LayerDef};
use lowbit_tensor::SpaceOverhead;
use lowbit_qgemm::{NA, NB};

/// Per-layer low-bit speedups over the ncnn 8-bit baseline (Fig. 7/14/15).
#[derive(Clone, Debug)]
pub struct LowbitVsNcnn {
    /// Layer names.
    pub layers: Vec<&'static str>,
    /// Baseline (ncnn 8-bit) modeled milliseconds per layer.
    pub baseline_ms: Vec<f64>,
    /// Bit widths evaluated (2..=8).
    pub bits: Vec<BitWidth>,
    /// `speedups[b][l]` = baseline / ours at `bits[b]`, layer `l`.
    pub speedups: Vec<Vec<f64>>,
}

impl LowbitVsNcnn {
    /// The paper's per-bit-width summary: (average over winning layers,
    /// number of winning layers).
    pub fn summary(&self, bit_idx: usize) -> (f64, usize) {
        crate::harness::winning_summary(&self.speedups[bit_idx])
    }
}

/// Runs the Fig. 7-style comparison on a layer table. The low-bit kernels
/// use the paper's algorithm policy (`ArmAlgo::Auto` would switch to
/// Winograd at 4–6 bit; Fig. 7 isolates the GEMM path, so `Gemm` is forced).
///
/// All figure experiments price *cold* one-shot convolutions
/// ([`ArmEngine::estimate_millis_cold`]): the paper's per-layer kernel
/// measurements include the weight pack that the engine's prepack cache
/// amortizes away during network inference.
pub fn lowbit_vs_ncnn(table: &[LayerDef]) -> LowbitVsNcnn {
    let engine = ArmEngine::cortex_a53();
    let bits: Vec<BitWidth> = BitWidth::ALL.to_vec();
    let layers: Vec<&'static str> = table.iter().map(|l| l.name).collect();
    let baseline_ms: Vec<f64> = table
        .iter()
        .map(|l| engine.estimate_millis(BitWidth::W8, &l.shape, ArmAlgo::NcnnBaseline))
        .collect();
    let speedups: Vec<Vec<f64>> = bits
        .iter()
        .map(|&b| {
            table
                .iter()
                .zip(&baseline_ms)
                .map(|(l, &base)| base / engine.estimate_millis_cold(b, &l.shape, ArmAlgo::Gemm))
                .collect()
        })
        .collect();
    LowbitVsNcnn {
        layers,
        baseline_ms,
        bits,
        speedups,
    }
}

/// Per-layer Winograd-vs-GEMM rows (Fig. 8): speedups of both algorithms
/// over the ncnn 8-bit baseline at 4–6 bit, restricted to the 3x3/s1 layers.
#[derive(Clone, Debug)]
pub struct WinogradFigure {
    /// Layer names (Winograd-applicable subset).
    pub layers: Vec<&'static str>,
    /// ncnn 8-bit baseline ms.
    pub baseline_ms: Vec<f64>,
    /// Bit widths (4, 5, 6).
    pub bits: Vec<BitWidth>,
    /// `gemm[b][l]` speedup of the GEMM path over baseline.
    pub gemm: Vec<Vec<f64>>,
    /// `winograd[b][l]` speedup of the Winograd path over baseline.
    pub winograd: Vec<Vec<f64>>,
}

/// Runs the Fig. 8 comparison.
pub fn winograd_figure(table: &[LayerDef]) -> WinogradFigure {
    let engine = ArmEngine::cortex_a53();
    let layers = winograd_layers(table);
    let bits = vec![BitWidth::W4, BitWidth::W5, BitWidth::W6];
    let baseline_ms: Vec<f64> = layers
        .iter()
        .map(|l| engine.estimate_millis(BitWidth::W8, &l.shape, ArmAlgo::NcnnBaseline))
        .collect();
    let run = |algo: ArmAlgo| -> Vec<Vec<f64>> {
        bits.iter()
            .map(|&b| {
                layers
                    .iter()
                    .zip(&baseline_ms)
                    .map(|(l, &base)| base / engine.estimate_millis_cold(b, &l.shape, algo))
                    .collect()
            })
            .collect()
    };
    let gemm = run(ArmAlgo::Gemm);
    let winograd = run(ArmAlgo::Winograd);
    let _ = &run;
    WinogradFigure {
        layers: layers.iter().map(|l| l.name).collect(),
        baseline_ms,
        bits,
        gemm,
        winograd,
    }
}

/// Per-layer ours-vs-TVM rows (Fig. 9, A2W2).
#[derive(Clone, Debug)]
pub struct TvmFigure {
    /// Layer names.
    pub layers: Vec<&'static str>,
    /// TVM popcount baseline ms.
    pub baseline_ms: Vec<f64>,
    /// Our 2-bit GEMM speedup over TVM per layer.
    pub speedups: Vec<f64>,
}

/// Runs the Fig. 9 comparison.
pub fn tvm_figure(table: &[LayerDef]) -> TvmFigure {
    let engine = ArmEngine::cortex_a53();
    let baseline_ms: Vec<f64> = table
        .iter()
        .map(|l| engine.estimate_millis(BitWidth::W2, &l.shape, ArmAlgo::BitserialBaseline))
        .collect();
    let speedups = table
        .iter()
        .zip(&baseline_ms)
        .map(|(l, &base)| {
            base / engine.estimate_millis_cold(BitWidth::W2, &l.shape, ArmAlgo::Gemm)
        })
        .collect();
    TvmFigure {
        layers: table.iter().map(|l| l.name).collect(),
        baseline_ms,
        speedups,
    }
}

/// Thread-scaling rows for the parallel execution engine (extension; not a
/// paper figure — the paper reports single-core kernel times).
///
/// Modeled speedups follow Amdahl's law over the warm (prepacked) analytic
/// schedule: im2col and requantization stay serial while pack-B and the GEMM
/// inner loops split across per-thread column blocks
/// ([`lowbit::conv_arm::parallel_cycle_split`]).
#[derive(Clone, Debug)]
pub struct ParallelScaling {
    /// Layer names.
    pub layers: Vec<&'static str>,
    /// Thread counts evaluated.
    pub threads: Vec<usize>,
    /// Serial fraction of each layer's warm schedule (im2col + requantize).
    pub serial_fraction: Vec<f64>,
    /// `modeled[t][l]` = Amdahl speedup at `threads[t]`, layer `l`.
    pub modeled: Vec<Vec<f64>>,
    /// `measured_ms[t][l]` = host wall-clock ms per steady-state conv
    /// (empty unless measurement was requested; host-dependent, the modeled
    /// numbers are the tracked quantity).
    pub measured_ms: Vec<Vec<f64>>,
    /// Workspace allocation events summed over every timed steady-state
    /// call — zero when the arena reuse works.
    pub steady_allocs: u64,
}

/// Runs the thread-scaling experiment at 4 bit. `measure` additionally runs
/// real convolutions per thread count under the harness
/// [`MeasurePolicy`](crate::harness::MeasurePolicy) (warm-up iterations,
/// min-of-N timed repeats) — keep the table small when measuring in debug
/// builds.
pub fn parallel_scaling(table: &[LayerDef], threads: &[usize], measure: bool) -> ParallelScaling {
    use lowbit::conv_arm::parallel_cycle_split;
    let engine = ArmEngine::cortex_a53();
    let split: Vec<(f64, f64)> = table
        .iter()
        .map(|l| {
            let sched = lowbit::arm_schedule(ArmAlgo::Gemm, BitWidth::W4, &l.shape, true);
            parallel_cycle_split(&sched, engine.model())
        })
        .collect();
    let serial_fraction = split.iter().map(|&(s, p)| s / (s + p)).collect();
    let modeled: Vec<Vec<f64>> = threads
        .iter()
        .map(|&t| {
            split
                .iter()
                .map(|&(s, p)| (s + p) / (s + p / t as f64))
                .collect()
        })
        .collect();

    let mut measured_ms = Vec::new();
    let mut steady_allocs = 0;
    if measure {
        for &t in threads {
            let eng = ArmEngine::cortex_a53().with_threads(t);
            let mut row = Vec::new();
            for l in table {
                let s = &l.shape;
                let input =
                    QTensor::random((s.batch, s.c_in, s.h, s.w), Layout::Nchw, BitWidth::W4, 1);
                let weights =
                    QTensor::random((s.c_out, s.c_in, s.kh, s.kw), Layout::Nchw, BitWidth::W4, 2);
                // Warm-up packs the weights, sizes the arena and settles the
                // host (caches, frequency); the timed repeats are the
                // allocation-free steady state and the minimum is reported.
                let policy = crate::harness::MeasurePolicy::default();
                for _ in 0..policy.warmup {
                    eng.conv(&input, &weights, s, ArmAlgo::Gemm);
                }
                let before = eng.workspace_stats().alloc_events;
                let ms = crate::harness::MeasurePolicy { warmup: 0, ..policy }
                    .measure_min_ms(|| {
                        eng.conv(&input, &weights, s, ArmAlgo::Gemm);
                    });
                row.push(ms);
                steady_allocs += eng.workspace_stats().alloc_events - before;
            }
            measured_ms.push(row);
        }
    }
    ParallelScaling {
        layers: table.iter().map(|l| l.name).collect(),
        threads: threads.to_vec(),
        serial_fraction,
        modeled,
        measured_ms,
        steady_allocs,
    }
}

/// Per-layer space-overhead rows (Fig. 13).
#[derive(Clone, Debug)]
pub struct SpaceFigure {
    /// Layer names.
    pub layers: Vec<&'static str>,
    /// im2col factor over the activation+weight baseline.
    pub im2col: Vec<f64>,
    /// padding+packing factor over im2col.
    pub packing: Vec<f64>,
    /// total factor over the baseline.
    pub total: Vec<f64>,
}

/// Runs the Fig. 13 accounting (pure arithmetic — matches the paper
/// exactly up to layer-table reconstruction).
pub fn space_figure(table: &[LayerDef]) -> SpaceFigure {
    let mut fig = SpaceFigure {
        layers: Vec::new(),
        im2col: Vec::new(),
        packing: Vec::new(),
        total: Vec::new(),
    };
    for l in table {
        let so = SpaceOverhead::for_shape(&l.shape, NA, NB);
        fig.layers.push(l.name);
        fig.im2col.push(so.im2col_factor());
        fig.packing.push(so.packing_factor());
        fig.total.push(so.total_factor());
    }
    fig
}

/// Prints a Fig. 7/14/15-style table plus the paper-style summary lines.
pub fn print_lowbit_vs_ncnn(title: &str, fig: &LowbitVsNcnn) {
    use crate::harness::Table;
    println!("{title}");
    println!("(speedup over the ncnn-like 8-bit baseline; baseline modeled ms shown)");
    let mut headers = vec!["layer".to_string(), "ncnn8 ms".to_string()];
    headers.extend(fig.bits.iter().map(|b| format!("{b}")));
    let mut table = Table::new(headers);
    for l in 0..fig.layers.len() {
        let mut row = vec![fig.layers[l].to_string(), format!("{:.3}", fig.baseline_ms[l])];
        row.extend((0..fig.bits.len()).map(|b| format!("{:.2}x", fig.speedups[b][l])));
        table.push_row(row);
    }
    table.print();
    for (b, bits) in fig.bits.iter().enumerate() {
        let (avg, wins) = fig.summary(b);
        println!(
            "{bits}: faster than ncnn on {wins}/{} layers, avg speedup {:.2}x over those",
            fig.layers.len(),
            if wins > 0 { avg } else { f64::NAN }
        );
    }
    println!();
}

/// Prints a Fig. 10/16/17-style summary paragraph for one figure.
pub fn paper_summary_line(name: &str, speedups: &[f64]) {
    let (avg, wins) = crate::harness::winning_summary(speedups);
    println!(
        "{name}: wins {wins}/{} layers, avg {:.2}x over winning layers (geomean {:.2}x overall)",
        speedups.len(),
        avg,
        crate::harness::geomean(speedups)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::mean;
    use lowbit_models::resnet50;

    #[test]
    fn fig7_bands_match_the_paper() {
        let fig = lowbit_vs_ncnn(&resnet50());
        // Paper averages over winning layers: 1.60/1.54/1.38/1.38/1.34/
        // 1.27/1.03 for 2..=8 bit. Accept the band around each.
        let expect = [
            (1.3, 2.3), // 2-bit
            (1.3, 2.3), // 3-bit
            (1.1, 1.9), // 4-bit
            (1.1, 1.9), // 5-bit
            (1.1, 1.9), // 6-bit
            (1.0, 1.7), // 7-bit
            (0.9, 1.3), // 8-bit (near parity)
        ];
        for (i, (lo, hi)) in expect.iter().enumerate() {
            let (avg, wins) = fig.summary(i);
            if wins > 0 {
                assert!(
                    (*lo..=*hi).contains(&avg),
                    "{}-bit avg {avg} outside [{lo}, {hi}]",
                    fig.bits[i]
                );
            }
            if i < 5 {
                assert!(wins >= 12, "{}-bit should win most layers", fig.bits[i]);
            }
        }
        // Monotone trend 2-bit >= ... >= 8-bit on the per-layer geomean.
        let g2 = crate::harness::geomean(&fig.speedups[0]);
        let g8 = crate::harness::geomean(&fig.speedups[6]);
        assert!(g2 > 1.4 * g8);
    }

    #[test]
    fn fig8_winograd_beats_gemm_on_all_rows() {
        let fig = winograd_figure(&resnet50());
        assert_eq!(fig.layers.len(), 4);
        for (b, _) in fig.bits.iter().enumerate() {
            let mut wins = 0;
            for l in 0..fig.layers.len() {
                // Known deviation (EXPERIMENTS.md): the 7x7 conv17 layer
                // loses ~12% to F(2x2,3x3) tile-padding waste in our model,
                // where the paper still measures a small win.
                assert!(
                    fig.winograd[b][l] > fig.gemm[b][l] * 0.85,
                    "winograd should be at least competitive on {} at {}",
                    fig.layers[l],
                    fig.bits[b]
                );
                if fig.winograd[b][l] > fig.gemm[b][l] {
                    wins += 1;
                }
            }
            assert!(wins >= 3, "winograd must win most 3x3 layers at {}", fig.bits[b]);
        }
        // Average band vs paper 1.50/1.44/1.34.
        let avg4 = mean(&fig.winograd[0]);
        assert!((1.2..=2.2).contains(&avg4), "4-bit winograd avg {avg4}");
    }

    #[test]
    fn fig9_we_win_most_layers() {
        let fig = tvm_figure(&resnet50());
        let (avg, wins) = crate::harness::winning_summary(&fig.speedups);
        assert!(wins >= 14, "paper: 16/19 winning layers, got {wins}");
        assert!((1.3..=2.4).contains(&avg), "paper avg 1.78, got {avg}");
    }

    #[test]
    fn parallel_engine_models_two_x_at_four_threads() {
        let fig = parallel_scaling(&resnet50(), &[1, 2, 4], false);
        // 1 thread is exactly the serial schedule.
        for (l, &s) in fig.modeled[0].iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-12, "{}: 1-thread speedup {s}", fig.layers[l]);
        }
        // Speedup grows with threads on every layer and the 4-thread average
        // clears the 2x target (serial im2col bounds it via Amdahl).
        for l in 0..fig.layers.len() {
            assert!(fig.modeled[1][l] > 1.0 && fig.modeled[2][l] > fig.modeled[1][l]);
            assert!(fig.serial_fraction[l] < 0.5, "{}: serial fraction", fig.layers[l]);
        }
        let avg4 = mean(&fig.modeled[2]);
        assert!(avg4 >= 2.0, "modeled 4-thread avg speedup {avg4} below 2x");
    }

    #[test]
    fn parallel_engine_measured_runs_do_not_allocate() {
        // A small layer so the measured path stays fast in debug builds.
        let table = [lowbit_models::LayerDef {
            name: "tiny3x3",
            shape: ConvShape::new(1, 8, 14, 14, 16, 3, 1, 1),
        }];
        let fig = parallel_scaling(&table, &[1, 2], true);
        assert_eq!(fig.measured_ms.len(), 2);
        assert!(fig.measured_ms.iter().all(|row| row.iter().all(|&ms| ms > 0.0)));
        assert_eq!(fig.steady_allocs, 0, "steady-state convs must not allocate");
    }

    #[test]
    fn fig13_reproduces_the_reported_extremes() {
        let fig = space_figure(&resnet50());
        let avg_im2col = mean(&fig.im2col);
        let min_im2col = fig.im2col.iter().cloned().fold(f64::MAX, f64::min);
        // Paper: min 1.0218, max 8.6034 (conv2), avg 1.9445. Our conv2 hits
        // the published maximum exactly; the stem (conv1) exceeds it in our
        // reconstruction (see EXPERIMENTS.md), and weight-heavy pointwise
        // layers sit at the published minimum.
        let conv2 = fig.im2col[fig.layers.iter().position(|&n| n == "conv2").unwrap()];
        assert!((conv2 - 8.6034).abs() < 5e-4, "conv2 {conv2}");
        assert!((1.0..1.1).contains(&min_im2col), "min {min_im2col}");
        assert!((1.8..=3.2).contains(&avg_im2col), "avg {avg_im2col}");
        // Packing adds at most fractions of a percent (paper <= 1.0058).
        for (i, &p) in fig.packing.iter().enumerate() {
            assert!(
                (1.0..1.02).contains(&p),
                "{}: packing factor {p}",
                fig.layers[i]
            );
        }
    }
}
