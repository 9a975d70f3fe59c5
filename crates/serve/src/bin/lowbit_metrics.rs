//! The metrics smoke driver and CI perf gate.
//!
//! ```text
//! lowbit-metrics --smoke [--check] [--out-dir DIR] [--golden-dir DIR]
//! lowbit-metrics bench-diff OLD.json NEW.json [--tolerance 0.10]
//! ```
//!
//! `--smoke` drives the deterministic virtual-time serving sim with
//! production metrics attached, renders the registry as Prometheus text
//! format (validated in-process) plus a JSON snapshot, and runs the
//! cost-model drift demo: a warmed executor whose observed-vs-predicted
//! ratios audit clean, then an injected 2x perturbation on exactly one
//! (shape, bits, backend) key that the auditor must flag — and nothing
//! else. `--check` additionally compares the exposition and the clean
//! drift report against the golden files.
//!
//! `bench-diff` compares two benchmark JSON files leaf-by-leaf and exits
//! nonzero when any tracked figure regressed past the tolerance — CI's
//! first performance gate.

use lowbit::prelude::*;
use lowbit_metrics::drift::DriftBand;
use lowbit_metrics::{prom, Registry};
use lowbit_serve::{
    simulate_instrumented, Arrival, BatchPolicy, RequestClass, ServeMetrics, SimConfig,
};
use lowbit_trace::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("bench-diff") => bench_diff_cmd(&argv[1..]),
        _ => smoke_cmd(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lowbit-metrics: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- smoke --

struct SmokeArgs {
    check: bool,
    out_dir: PathBuf,
    golden_dir: PathBuf,
}

fn smoke_cmd(argv: &[String]) -> Result<(), String> {
    let mut args = SmokeArgs {
        check: false,
        out_dir: PathBuf::from("."),
        golden_dir: PathBuf::from("tests/golden"),
    };
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--check" => args.check = true,
            "--out-dir" => {
                args.out_dir = PathBuf::from(it.next().ok_or("--out-dir needs a path")?)
            }
            "--golden-dir" => {
                args.golden_dir = PathBuf::from(it.next().ok_or("--golden-dir needs a path")?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !smoke {
        return Err("usage: lowbit-metrics --smoke [--check] | bench-diff OLD NEW".to_string());
    }

    let exposition = sim_exposition()?;
    let drift_report = drift_demo()?;

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {:?}: {e}", args.out_dir))?;
    let prom_path = args.out_dir.join("metrics_exposition.prom");
    std::fs::write(&prom_path, &exposition.text)
        .map_err(|e| format!("write {prom_path:?}: {e}"))?;
    let snap_path = args.out_dir.join("metrics_snapshot.json");
    std::fs::write(&snap_path, &exposition.snapshot_json)
        .map_err(|e| format!("write {snap_path:?}: {e}"))?;
    let drift_path = args.out_dir.join("drift_report.txt");
    std::fs::write(&drift_path, &drift_report)
        .map_err(|e| format!("write {drift_path:?}: {e}"))?;
    println!("smoke: exposition -> {} ({} samples validated)", prom_path.display(), exposition.samples);
    println!("smoke: snapshot   -> {}", snap_path.display());
    println!("smoke: drift      -> {}", drift_path.display());

    if args.check {
        check_golden(&args.golden_dir.join("metrics_exposition.prom"), &exposition.text)?;
        check_golden(&args.golden_dir.join("drift_report.txt"), &drift_report)?;
        println!("smoke: goldens match");
    }
    Ok(())
}

fn check_golden(path: &Path, actual: &str) -> Result<(), String> {
    let golden = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    if golden != actual {
        let mismatch = golden
            .lines()
            .zip(actual.lines())
            .position(|(g, a)| g != a)
            .map(|i| format!("first differing line {}", i + 1))
            .unwrap_or_else(|| "line counts differ".to_string());
        return Err(format!(
            "{} does not match the current output ({mismatch}); \
             regenerate with `lowbit-metrics --smoke --out-dir tests/golden`",
            path.display()
        ));
    }
    Ok(())
}

struct Exposition {
    text: String,
    snapshot_json: String,
    samples: usize,
}

/// Drives the virtual-time sim for two classes with metrics attached and
/// renders the registry. Everything is seeded and virtual-time, so the
/// exposition is bit-identical on every host.
fn sim_exposition() -> Result<Exposition, String> {
    let classes = [RequestClass::demo(BitWidth::W4, 12, 9), RequestClass::demo(BitWidth::W6, 12, 9)];
    let names: Vec<&str> = classes.iter().map(|c| c.name()).collect();
    let registry = Arc::new(Registry::new());
    // A 4 ms p99 objective: tight enough that the overloaded class burns
    // error budget while the in-capacity class stays clean.
    let metrics = ServeMetrics::new(registry.clone(), &names, 4.0);
    for (idx, class) in classes.iter().enumerate() {
        // Class 0 is driven over capacity (exercising rejections and SLO
        // burn); class 1 runs comfortably inside it.
        let cfg = SimConfig {
            policy: BatchPolicy::Dynamic { max_batch: 16, deadline_ms: 2.0 },
            arrival: Arrival::OpenLoop { rate_per_s: if idx == 0 { 20_000.0 } else { 400.0 } },
            requests: 2000,
            queue_depth: if idx == 0 { 16 } else { 64 },
            seed: 42,
            force_backend: None,
        };
        let r = simulate_instrumented(class, &cfg, &metrics, idx);
        println!(
            "sim[{}]: completed {} rejected {} p99 {:.3} ms (hist p99 {:.3} ms)",
            class.name(),
            r.completed,
            r.rejected,
            r.p99_ms,
            metrics.total_percentile(idx, 0.99),
        );
    }
    let snapshot = registry.snapshot();
    let text = prom::render(&snapshot);
    let samples = prom::validate(&text).map_err(|e| format!("exposition invalid: {e}"))?;
    Ok(Exposition { text, snapshot_json: snapshot.to_json(), samples })
}

// ---------------------------------------------------------------- drift --

fn demo_input(hw: usize) -> Tensor<f32> {
    let data: Vec<f32> = (0..3 * hw * hw).map(|i| (i % 17) as f32 / 8.5 - 1.0).collect();
    Tensor::from_vec((1, 3, hw, hw), Layout::Nchw, data)
}

/// The drift demo: a warmed executor audits clean under the default band
/// (warm modeled millis reproduce the plan's predictions exactly), then a
/// 2x perturbation injected into one layer's prediction must be flagged on
/// exactly that (shape, bits, backend) key. Returns the rendered *clean*
/// report (the golden).
fn drift_demo() -> Result<String, String> {
    let engine = ArmEngine::cortex_a53().with_threads(2);
    let net = Network::demo(BitWidth::W4, 16, 5);
    let plan = Planner::for_arm(&engine)
        .compile(&net)
        .map_err(|e| format!("compile: {e}"))?;
    let input = demo_input(16);
    // Warm the prepack cache: cold first runs carry pack cost the steady
    // state never sees, and the auditor models the steady state.
    Executor::for_arm(&engine)
        .run(&plan, &net, &input)
        .map_err(|e| format!("warm run: {e}"))?;

    let clean = lowbit::ExecMetrics::new(Arc::new(Registry::new()));
    let exec = Executor::for_arm(&engine).with_metrics(&clean);
    for _ in 0..4 {
        exec.run(&plan, &net, &input).map_err(|e| format!("clean run: {e}"))?;
    }
    let band = DriftBand::default();
    let clean_report = clean.audit(band);
    if !clean_report.clean() {
        return Err(format!(
            "unperturbed run must audit clean:\n{}",
            clean_report.render()
        ));
    }

    // Inject the perturbation: halve one layer's predicted millis so its
    // observed/predicted ratio becomes exactly 2x, outside the band.
    let mut layers = plan.layers().to_vec();
    layers[0].predicted_millis *= 0.5;
    let perturbed_key = lowbit::ExecKey::of(&layers[0]);
    let perturbed_plan = plan.clone().with_layers(layers, plan.workspace_high_water_bytes());
    let perturbed = lowbit::ExecMetrics::new(Arc::new(Registry::new()));
    let exec = Executor::for_arm(&engine).with_metrics(&perturbed);
    for _ in 0..4 {
        exec.run(&perturbed_plan, &net, &input)
            .map_err(|e| format!("perturbed run: {e}"))?;
    }
    let perturbed_report = perturbed.audit(band);
    let findings = perturbed_report.findings();
    if findings.len() != 1 || findings[0].key != perturbed_key {
        return Err(format!(
            "2x perturbation must flag exactly {perturbed_key}:\n{}",
            perturbed_report.render()
        ));
    }
    println!(
        "drift: clean audit over {} keys; perturbation flagged {} (mean ratio {:.4})",
        clean_report.keys.len(),
        findings[0].key,
        findings[0].mean_ratio
    );
    Ok(clean_report.render())
}

// ----------------------------------------------------------- bench-diff --

fn bench_diff_cmd(argv: &[String]) -> Result<(), String> {
    let mut tolerance = 0.10f64;
    let mut files: Vec<&String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance needs a fraction")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
            }
            _ => files.push(a),
        }
    }
    let [old_path, new_path] = files[..] else {
        return Err("usage: lowbit-metrics bench-diff OLD.json NEW.json [--tolerance 0.10]"
            .to_string());
    };
    let old = load_leaves(old_path)?;
    let new = load_leaves(new_path)?;
    let (compared, regressions) = diff_figures(&old, &new, tolerance);
    if compared == 0 {
        return Err("no comparable benchmark figures found in both files".to_string());
    }
    println!(
        "bench-diff: {compared} figures compared at ±{:.0}% tolerance, {} regressions",
        tolerance * 100.0,
        regressions.len()
    );
    if regressions.is_empty() {
        Ok(())
    } else {
        for r in &regressions {
            eprintln!("  REGRESSION {r}");
        }
        Err(format!("{} benchmark figures regressed past tolerance", regressions.len()))
    }
}

enum Direction {
    HigherBetter,
    LowerBetter,
}

/// Compares every tracked figure present in both leaf sets; returns the
/// number compared and one line per regression past `tolerance`.
fn diff_figures(
    old: &[(String, f64)],
    new: &[(String, f64)],
    tolerance: f64,
) -> (usize, Vec<String>) {
    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for (path, old_v) in old {
        let Some(direction) = direction_of(path) else { continue };
        let Some(new_v) = new.iter().find(|(p, _)| p == path).map(|(_, v)| *v) else {
            continue;
        };
        compared += 1;
        let regressed = match direction {
            Direction::HigherBetter => new_v < old_v * (1.0 - tolerance),
            Direction::LowerBetter => new_v > old_v * (1.0 + tolerance),
        };
        if regressed {
            let pct = (new_v / old_v - 1.0) * 100.0;
            regressions.push(format!("{path}: {old_v:.4} -> {new_v:.4} ({pct:+.1}%)"));
        }
    }
    (compared, regressions)
}

/// Which figures gate the diff. Wall-clock fields (`wall_ms` etc.) are
/// deliberately skipped — they are host-noisy; modeled and virtual-time
/// figures are deterministic.
fn direction_of(path: &str) -> Option<Direction> {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    let leaf = leaf.split('[').next().unwrap_or(leaf);
    match leaf {
        "throughput_rps" | "speedup" | "avg_speedup" | "amdahl_speedup" | "cache_hit_rate"
        | "reduction_factor" => Some(Direction::HigherBetter),
        "p50_ms" | "p95_ms" | "p99_ms" | "mean_ms" | "makespan_ms"
        | "activation_high_water_bytes" => Some(Direction::LowerBetter),
        _ => None,
    }
}

fn load_leaves(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut leaves = Vec::new();
    collect_leaves(&value, String::new(), &mut leaves);
    Ok(leaves)
}

fn collect_leaves(v: &Value, path: String, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Num(n) => out.push((path, *n)),
        Value::Obj(fields) => {
            for (k, child) in fields {
                let next = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                collect_leaves(child, next, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                collect_leaves(child, format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(text: &str) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        collect_leaves(&parse(text).unwrap(), String::new(), &mut out);
        out
    }

    const BENCH: &str = r#"{"classes":[{"open_loop":{"throughput_rps":1000.0,
        "p99_ms":5.0,"wall_ms":123.0}}],"cache_hit_rate":0.9}"#;

    #[test]
    fn self_comparison_is_clean() {
        let l = leaves(BENCH);
        let (compared, regressions) = diff_figures(&l, &l, 0.10);
        assert_eq!(compared, 3, "throughput + p99 + hit rate; wall_ms skipped");
        assert!(regressions.is_empty());
    }

    #[test]
    fn twenty_percent_throughput_regression_is_flagged_at_ten_percent_tolerance() {
        let old = leaves(BENCH);
        let new = leaves(&BENCH.replace("1000.0", "800.0"));
        let (_, regressions) = diff_figures(&old, &new, 0.10);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("throughput_rps"), "{}", regressions[0]);
    }

    #[test]
    fn latency_regressions_use_the_lower_better_direction() {
        let old = leaves(BENCH);
        // p99 doubling regresses; throughput doubling improves.
        let new = leaves(&BENCH.replace("5.0", "10.0").replace("1000.0", "2000.0"));
        let (_, regressions) = diff_figures(&old, &new, 0.10);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("p99_ms"));
        // Wall-clock noise never gates.
        let noisy = leaves(&BENCH.replace("123.0", "999.0"));
        let (_, r2) = diff_figures(&old, &noisy, 0.10);
        assert!(r2.is_empty());
    }
}
