//! CSV export of every figure's raw data (for plotting the paper's charts
//! from this reproduction).

use crate::arm_experiments::*;
use crate::gpu_experiments::*;
use crate::harness::Table;
use lowbit_models::{densenet121, resnet50, scr_resnet50};
use std::path::{Path, PathBuf};

fn arm_table(fig: &LowbitVsNcnn) -> Table {
    let mut headers = vec!["layer".to_string(), "ncnn8_ms".to_string()];
    headers.extend(fig.bits.iter().map(|b| format!("speedup_{}", b.bits())));
    let mut t = Table::new(headers);
    for l in 0..fig.layers.len() {
        let mut row = vec![fig.layers[l].to_string(), format!("{:.6}", fig.baseline_ms[l])];
        row.extend((0..fig.bits.len()).map(|b| format!("{:.4}", fig.speedups[b][l])));
        t.push_row(row);
    }
    t
}

fn gpu_table(fig: &GpuFigure) -> Table {
    let mut t = Table::new(vec!["layer", "cudnn_us", "tensorrt_us", "ours8_us", "ours4_us"]);
    for l in 0..fig.layers.len() {
        t.push_row(vec![
            fig.layers[l].to_string(),
            format!("{:.3}", fig.cudnn_us[l]),
            format!("{:.3}", fig.tensorrt_us[l]),
            format!("{:.3}", fig.ours8_us[l]),
            format!("{:.3}", fig.ours4_us[l]),
        ]);
    }
    t
}

/// Writes one CSV per paper figure under `dir` and returns the paths.
pub fn save_all(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    paths.push(arm_table(&lowbit_vs_ncnn(&resnet50())).save_csv(dir, "fig7_arm_resnet50")?);
    paths.push(arm_table(&lowbit_vs_ncnn(&densenet121())).save_csv(dir, "fig14_arm_densenet121")?);
    paths.push(arm_table(&lowbit_vs_ncnn(&scr_resnet50())).save_csv(dir, "fig15_arm_scr_resnet50")?);

    let wf = winograd_figure(&resnet50());
    let mut t = Table::new(vec![
        "layer", "ncnn8_ms", "gemm4", "wino4", "gemm5", "wino5", "gemm6", "wino6",
    ]);
    for l in 0..wf.layers.len() {
        let mut row = vec![wf.layers[l].to_string(), format!("{:.6}", wf.baseline_ms[l])];
        for b in 0..wf.bits.len() {
            row.push(format!("{:.4}", wf.gemm[b][l]));
            row.push(format!("{:.4}", wf.winograd[b][l]));
        }
        t.push_row(row);
    }
    paths.push(t.save_csv(dir, "fig8_winograd")?);

    let tf = tvm_figure(&resnet50());
    let mut t = Table::new(vec!["layer", "tvm_ms", "speedup"]);
    for l in 0..tf.layers.len() {
        t.push_row(vec![
            tf.layers[l].to_string(),
            format!("{:.6}", tf.baseline_ms[l]),
            format!("{:.4}", tf.speedups[l]),
        ]);
    }
    paths.push(t.save_csv(dir, "fig9_tvm_popcount")?);

    for (batch, name) in [(1usize, "fig10_gpu_resnet50_b1"), (16, "fig10_gpu_resnet50_b16")] {
        paths.push(gpu_table(&gpu_vs_baselines(&resnet50(), batch)).save_csv(dir, name)?);
    }
    paths.push(gpu_table(&gpu_vs_baselines(&scr_resnet50(), 1)).save_csv(dir, "fig16_gpu_scr")?);
    paths.push(gpu_table(&gpu_vs_baselines(&densenet121(), 1)).save_csv(dir, "fig17_gpu_densenet")?);

    let pf = profile_runs(&resnet50());
    let mut t = Table::new(vec!["layer", "gain4", "gain8"]);
    for l in 0..pf.layers.len() {
        t.push_row(vec![
            pf.layers[l].to_string(),
            format!("{:.4}", pf.gain4[l]),
            format!("{:.4}", pf.gain8[l]),
        ]);
    }
    paths.push(t.save_csv(dir, "fig11_profile_runs")?);

    let ff = fusion(&resnet50());
    let mut t = Table::new(vec!["layer", "dequant_fusion", "relu_fusion"]);
    for l in 0..ff.layers.len() {
        t.push_row(vec![
            ff.layers[l].to_string(),
            format!("{:.4}", ff.dequant[l]),
            format!("{:.4}", ff.relu[l]),
        ]);
    }
    paths.push(t.save_csv(dir, "fig12_fusion")?);

    let sf = space_figure(&resnet50());
    let mut t = Table::new(vec!["layer", "im2col", "padding_packing", "total"]);
    for l in 0..sf.layers.len() {
        t.push_row(vec![
            sf.layers[l].to_string(),
            format!("{:.4}", sf.im2col[l]),
            format!("{:.4}", sf.packing[l]),
            format!("{:.4}", sf.total[l]),
        ]);
    }
    paths.push(t.save_csv(dir, "fig13_space_overhead")?);
    Ok(paths)
}

fn json_f64_list(vals: &[f64]) -> String {
    let items: Vec<String> = vals.iter().map(|v| format!("{v:.6}")).collect();
    format!("[{}]", items.join(","))
}

fn json_str_list(vals: &[&str]) -> String {
    let items: Vec<String> = vals.iter().map(|v| format!("\"{v}\"")).collect();
    format!("[{}]", items.join(","))
}

/// Writes `BENCH_parallel.json` under `dir`: the modeled Amdahl thread
/// scaling over the full ResNet-50 table plus a measured steady-state run on
/// a small layer (so the file regenerates quickly even in debug builds).
/// This is the perf-trajectory record for the parallel execution engine.
pub fn save_parallel_json(dir: &Path) -> std::io::Result<PathBuf> {
    use crate::arm_experiments::parallel_scaling;
    use lowbit_models::LayerDef;
    use lowbit_tensor::ConvShape;

    let threads = [1usize, 2, 4];
    let modeled = parallel_scaling(&resnet50(), &threads, false);
    let small = [LayerDef {
        name: "tiny3x3",
        shape: ConvShape::new(1, 8, 14, 14, 16, 3, 1, 1),
    }];
    let measured = parallel_scaling(&small, &threads, true);

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"parallel_gemm_conv_scaling\",\n");
    s.push_str("  \"bits\": 4,\n");
    s.push_str(&format!(
        "  \"threads\": [{}],\n",
        threads.map(|t| t.to_string()).join(",")
    ));
    s.push_str("  \"modeled\": {\n");
    s.push_str(&format!(
        "    \"layers\": {},\n",
        json_str_list(&modeled.layers)
    ));
    s.push_str(&format!(
        "    \"serial_fraction\": {},\n",
        json_f64_list(&modeled.serial_fraction)
    ));
    let rows: Vec<String> = modeled
        .modeled
        .iter()
        .map(|row| format!("      {}", json_f64_list(row)))
        .collect();
    s.push_str(&format!(
        "    \"amdahl_speedup\": [\n{}\n    ],\n",
        rows.join(",\n")
    ));
    let avgs: Vec<f64> = modeled
        .modeled
        .iter()
        .map(|row| crate::harness::mean(row))
        .collect();
    s.push_str(&format!(
        "    \"avg_speedup\": {}\n",
        json_f64_list(&avgs)
    ));
    s.push_str("  },\n");
    s.push_str("  \"measured\": {\n");
    s.push_str(&format!(
        "    \"layers\": {},\n",
        json_str_list(&measured.layers)
    ));
    let rows: Vec<String> = measured
        .measured_ms
        .iter()
        .map(|row| format!("      {}", json_f64_list(row)))
        .collect();
    s.push_str(&format!(
        "    \"wall_ms\": [\n{}\n    ],\n",
        rows.join(",\n")
    ));
    s.push_str(&format!(
        "    \"steady_alloc_events\": {}\n",
        measured.steady_allocs
    ));
    s.push_str("  }\n");
    s.push_str("}\n");

    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_parallel.json");
    std::fs::write(&path, s)?;
    Ok(path)
}

/// Writes `BENCH_graph.json` under `dir`: the activation-memory record for
/// the DAG planner. For the ResNet-50 residual block and DenseNet-121's
/// first dense block (six growth steps), it compares the liveness arena's
/// certified `activation_high_water_bytes` against the sum of all value
/// bytes — what allocating every activation its own buffer would cost —
/// and reports the reduction factor. A `node_parallel` section then
/// compares each block (plus the genuinely wide ResNet-50 projection
/// block) under the certified parallel node scheduler: wave-makespan
/// (per-wave critical path of modeled layer millis) against the serial
/// predicted total, and the any-schedule arena high-water against
/// the serial placement's. All figures are modeled plan constants, so the
/// file is deterministic and gates the bench-diff CI step (dense-block
/// target: ≥2x reduction).
pub fn save_graph_json(dir: &Path) -> std::io::Result<PathBuf> {
    use lowbit::models::{
        densenet121_dense_block_n, resnet50_projection_block, resnet50_residual_block,
    };
    use lowbit::prelude::*;
    use lowbit::{Network, PlanOp};

    let arm = ArmEngine::cortex_a53();
    let blocks = [
        ("resnet50_residual_block", resnet50_residual_block(12)),
        ("densenet121_dense_block", densenet121_dense_block_n(12, 6)),
    ];

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"graph_liveness_memory_planning\",\n");
    s.push_str("  \"bits\": 4,\n");
    for (name, def) in blocks.iter() {
        let net = Network::from_graph_defs(def, BitWidth::W4, 9)
            .expect("block defs are valid");
        let plan = Planner::for_arm(&arm)
            .compile(&net)
            .expect("ARM serves every bit width");
        let shared = plan.activation_high_water_bytes();
        let unshared: usize = plan.values().iter().map(|v| v.bytes).sum();
        s.push_str(&format!("  \"{name}\": {{\n"));
        s.push_str(&format!("    \"nodes\": {},\n", plan.nodes().len()));
        s.push_str(&format!("    \"conv_layers\": {},\n", plan.layers().len()));
        s.push_str(&format!("    \"sum_of_value_bytes\": {unshared},\n"));
        s.push_str(&format!("    \"activation_high_water_bytes\": {shared},\n"));
        s.push_str(&format!(
            "    \"reduction_factor\": {:.4},\n",
            unshared as f64 / shared as f64
        ));
        s.push_str(&format!(
            "    \"predicted_total_millis\": {:.9}\n",
            plan.predicted_millis()
        ));
        s.push_str("  },\n");
    }

    // Node-parallel section: serial vs certified-parallel makespan and
    // arena footprint. The wave makespan charges each wave its slowest
    // node (Add/Concat glue is modeled free, matching `predicted_millis`
    // which only sums conv layers).
    let mut par_blocks: Vec<(&'static str, lowbit::models::GraphDef)> = blocks.into();
    par_blocks.push(("resnet50_projection_block", resnet50_projection_block(12)));
    s.push_str("  \"node_parallel\": {\n");
    for (i, (name, def)) in par_blocks.iter().enumerate() {
        let net = Network::from_graph_defs(def, BitWidth::W4, 9)
            .expect("block defs are valid");
        let serial = Planner::for_arm(&arm)
            .compile(&net)
            .expect("ARM serves every bit width");
        let parallel = Planner::for_arm(&arm)
            .with_parallel_nodes(true)
            .compile(&net)
            .expect("parallel compilation certifies");
        let schedule = parallel
            .parallel_schedule()
            .expect("parallel plans carry a certificate");
        let node_millis = |n: usize| match parallel.nodes()[n].op {
            PlanOp::Conv { layer, .. } => parallel.layers()[layer].predicted_millis,
            _ => 0.0,
        };
        let makespan: f64 = schedule
            .waves
            .iter()
            .map(|wave| wave.iter().map(|&n| node_millis(n)).fold(0.0, f64::max))
            .sum();
        s.push_str(&format!("    \"{name}\": {{\n"));
        s.push_str(&format!("      \"waves\": {},\n", schedule.waves.len()));
        s.push_str(&format!(
            "      \"max_wave_width\": {},\n",
            schedule.max_wave_width()
        ));
        s.push_str(&format!(
            "      \"serial_makespan_ms\": {:.9},\n",
            serial.predicted_millis()
        ));
        s.push_str(&format!("      \"parallel_makespan_ms\": {makespan:.9},\n"));
        s.push_str(&format!(
            "      \"makespan_speedup\": {:.4},\n",
            serial.predicted_millis() / makespan
        ));
        s.push_str(&format!(
            "      \"serial_arena_bytes\": {},\n",
            serial.activation_high_water_bytes()
        ));
        s.push_str(&format!(
            "      \"parallel_arena_bytes\": {},\n",
            parallel.activation_high_water_bytes()
        ));
        s.push_str(&format!(
            "      \"certificate\": \"{:#018x}\"\n",
            schedule.certificate
        ));
        s.push_str(if i + 1 == par_blocks.len() { "    }\n" } else { "    },\n" });
    }
    s.push_str("  }\n");
    s.push_str("}\n");

    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_graph.json");
    std::fs::write(&path, s)?;
    Ok(path)
}

/// Writes `BENCH_trace.json` under `dir`: the machine-readable summary of a
/// traced steady-state demo-network run (per-span-name aggregation with pipe
/// attribution, counter series, and the GPU stage estimates) — the
/// perf-trajectory record for the observability layer.
pub fn save_trace_json(dir: &Path) -> std::io::Result<PathBuf> {
    use lowbit::prelude::*;
    use lowbit::Network;
    use lowbit_trace::summary::summary_json;

    let net = Network::demo(BitWidth::W4, 12, 9);
    let engine = ArmEngine::cortex_a53().with_threads(2);
    let dims = (1usize, 3usize, 12usize, 12usize);
    let len = dims.0 * dims.1 * dims.2 * dims.3;
    let input = Tensor::from_vec(
        dims,
        Layout::Nchw,
        (0..len).map(|i| (i % 17) as f32 / 8.5 - 1.0).collect(),
    );
    let plan = Planner::for_arm(&engine).compile(&net).expect("ARM serves every bit width");
    let exec = Executor::for_arm(&engine);
    // Warm-up pass: packs weights and grows the arena, so the traced run
    // below records the steady state.
    let _ = exec.run(&plan, &net, &input);

    let (tracer, sink) = Tracer::recording();
    let run = exec
        .run_traced(&plan, &net, &input, &tracer)
        .expect("plan compiled from this network");
    let (reports, total_ms) = (run.reports, run.total_millis);
    let gpu = GpuEngine::rtx2080ti();
    let gpu_layers = Planner::for_gpu(&gpu, Tuning::Default)
        .compile(&net)
        .and_then(|plan| Executor::for_gpu(&gpu).estimate(&plan, &tracer));

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"trace_summary\",\n");
    s.push_str("  \"network\": \"demo_w4\",\n");
    s.push_str(&format!("  \"layers\": {},\n", reports.len()));
    s.push_str(&format!("  \"total_modeled_ms\": {total_ms:.9},\n"));
    s.push_str(&format!(
        "  \"steady_prepack_misses\": {},\n",
        reports.iter().map(|r| r.prepack_misses).sum::<u64>()
    ));
    s.push_str(&format!(
        "  \"steady_workspace_growth_bytes\": {},\n",
        reports.iter().map(|r| r.workspace_growth_bytes).sum::<usize>()
    ));
    if let Ok(layers) = gpu_layers {
        let items: Vec<String> = layers
            .iter()
            .map(|l| {
                let t = l.gpu_time.expect("GPU estimates carry a stage breakdown");
                format!(
                    "    {{\"name\":\"{}\",\"total_us\":{:.6},\"mma_us\":{:.6},\"smem_us\":{:.6},\"dram_us\":{:.6}}}",
                    l.name,
                    l.micros(),
                    t.mma_s * 1e6,
                    t.smem_s * 1e6,
                    t.dram_s * 1e6
                )
            })
            .collect();
        s.push_str(&format!("  \"gpu_layers\": [\n{}\n  ],\n", items.join(",\n")));
    }
    s.push_str(&format!("  \"trace\": {}\n", summary_json(&sink.capture())));
    s.push_str("}\n");

    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_trace.json");
    std::fs::write(&path, s)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_every_figure_as_parseable_csv() {
        let dir = std::env::temp_dir().join("lowbit_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = save_all(&dir).unwrap();
        assert_eq!(paths.len(), 12, "one CSV per figure incl. both batches");
        for p in paths {
            let text = std::fs::read_to_string(&p).unwrap();
            let mut lines = text.lines();
            let header_cols = lines.next().unwrap().split(',').count();
            let rows: Vec<&str> = lines.collect();
            assert!(!rows.is_empty(), "{p:?} has no data rows");
            for row in rows {
                assert_eq!(row.split(',').count(), header_cols, "{p:?} ragged");
            }
        }
    }

    #[test]
    fn parallel_json_has_the_tracked_fields() {
        let dir = std::env::temp_dir().join("lowbit_parallel_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = save_parallel_json(&dir).unwrap();
        assert!(path.ends_with("BENCH_parallel.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"experiment\"",
            "\"threads\"",
            "\"amdahl_speedup\"",
            "\"avg_speedup\"",
            "\"wall_ms\"",
            "\"steady_alloc_events\": 0",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        // 19 ResNet-50 layers modeled at 3 thread counts.
        assert_eq!(text.matches("\"conv").count(), 19, "modeled layer list");
    }

    #[test]
    fn graph_json_proves_the_dense_block_memory_target() {
        let dir = std::env::temp_dir().join("lowbit_graph_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = save_graph_json(&dir).unwrap();
        assert!(path.ends_with("BENCH_graph.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = lowbit_trace::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("experiment").unwrap().as_str(),
            Some("graph_liveness_memory_planning")
        );
        for block in ["resnet50_residual_block", "densenet121_dense_block"] {
            let b = doc.get(block).unwrap();
            let shared = b.get("activation_high_water_bytes").unwrap().as_num().unwrap();
            let unshared = b.get("sum_of_value_bytes").unwrap().as_num().unwrap();
            assert!(shared > 0.0 && shared <= unshared, "{block}");
            let factor = b.get("reduction_factor").unwrap().as_num().unwrap();
            assert!((factor - unshared / shared).abs() < 1e-3, "{block}");
        }
        // The tentpole target: liveness sharing halves (or better) the
        // dense block's activation footprint vs one-buffer-per-value.
        let factor = doc
            .get("densenet121_dense_block")
            .unwrap()
            .get("reduction_factor")
            .unwrap()
            .as_num()
            .unwrap();
        assert!(factor >= 2.0, "dense-block reduction {factor} below the 2x target");

        // Node-parallel section: every block certifies; makespans and
        // arenas obey the scheduler's invariants (parallel makespan never
        // exceeds serial, the wide projection block strictly beats it and
        // pays for the overlap with a larger arena).
        let np = doc.get("node_parallel").unwrap();
        for block in [
            "resnet50_residual_block",
            "densenet121_dense_block",
            "resnet50_projection_block",
        ] {
            let b = np.get(block).unwrap();
            let serial_ms = b.get("serial_makespan_ms").unwrap().as_num().unwrap();
            let par_ms = b.get("parallel_makespan_ms").unwrap().as_num().unwrap();
            assert!(par_ms > 0.0 && par_ms <= serial_ms + 1e-12, "{block}");
            let serial_arena = b.get("serial_arena_bytes").unwrap().as_num().unwrap();
            let par_arena = b.get("parallel_arena_bytes").unwrap().as_num().unwrap();
            assert!(par_arena >= serial_arena, "{block}: parallel arena shrank?");
        }
        let wide = np.get("resnet50_projection_block").unwrap();
        assert!(wide.get("max_wave_width").unwrap().as_num().unwrap() >= 2.0);
        assert!(wide.get("makespan_speedup").unwrap().as_num().unwrap() > 1.0);
    }

    #[test]
    fn trace_json_is_valid_and_steady_state() {
        let dir = std::env::temp_dir().join("lowbit_trace_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = save_trace_json(&dir).unwrap();
        assert!(path.ends_with("BENCH_trace.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = lowbit_trace::json::parse(&text).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("trace_summary"));
        // The traced run happens after warm-up: no packing, no arena growth.
        assert_eq!(doc.get("steady_prepack_misses").unwrap().as_num(), Some(0.0));
        assert_eq!(doc.get("steady_workspace_growth_bytes").unwrap().as_num(), Some(0.0));
        assert!(doc.get("total_modeled_ms").unwrap().as_num().unwrap() > 0.0);
        assert_eq!(doc.get("gpu_layers").unwrap().as_arr().unwrap().len(), 3);
        let trace = doc.get("trace").unwrap();
        assert!(trace.get("spans").unwrap().as_num().unwrap() > 0.0);
        let names: Vec<&str> = trace
            .get("by_name")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.get("name").unwrap().as_str().unwrap())
            .collect();
        for expected in ["layer", "conv", "gemm", "requantize", "mma"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
    }
}
