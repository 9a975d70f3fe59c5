//! `lowbit-benchmark`: runs one workload, all five, or compares two runs.
//!
//! ```text
//! lowbit-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1|both] [--trace-out DIR] [--smoke]
//! lowbit-benchmark --seed N [--out FILE] [--seconds S] [--trace-out DIR] [--smoke]
//! lowbit-benchmark compare BASE.json[,BASE2.json...] CHANGE.json[,CHANGE2.json...]
//! ```
//!
//! A workload run prints one line per metric (`workload metric value unit
//! clock n=samples`) and, last, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics `BENCHMARK.json` lists for its mode (`--trace 0`:
//! the untraced window's end-to-end metrics; `1`: the traced pass's
//! per-layer metrics; `both`: the window, then the traced pass, in one
//! process). It exits 1 when any output was wrong or any operation failed,
//! and 2 on a usage or internal error, without a result line. Without
//! `--workload`, every workload runs with `--trace both` in its own child
//! process, and `--out` collects them into one file.

use lowbit::trace::chrome::validate_chrome_trace;
use lowbit::trace::json::{self, Value};
use lowbit_benchmark::harness::Options;
use lowbit_benchmark::metric::Metric;
use lowbit_benchmark::report::{
    compare, format_rows, listed, result_line, RunFile, Verdict, WorkloadResult,
};
use lowbit_benchmark::sys::{cpu_model, nproc, rustc_version};
use lowbit_benchmark::{run_workload, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  lowbit-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1|both] [--trace-out DIR] [--smoke]
  lowbit-benchmark --seed N [--out FILE] [--seconds S] [--trace-out DIR] [--smoke]
  lowbit-benchmark compare BASE.json[,BASE2.json...] CHANGE.json[,CHANGE2.json...]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    window: bool,
    traced: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_cli(args: &[String], default_seconds: f64) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: default_seconds,
        window: true,
        traced: false,
        trace_out: None,
        out: None,
        smoke: false,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                (cli.window, cli.traced) = match value()?.as_str() {
                    "0" => (true, false),
                    "1" => (false, true),
                    "both" => (true, true),
                    other => return Err(format!("--trace takes 0, 1 or both, not {other:?}")),
                }
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value()?)),
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    cli.seed = seed.ok_or("--seed is required")?;
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; expected one of {WORKLOADS:?}"
            ));
        }
    }
    Ok(cli)
}

fn run_one(workload: &str, cli: &Cli) -> Result<i32, String> {
    let listed = listed()?;
    let opts = Options {
        seed: cli.seed,
        seconds: cli.seconds,
        window: cli.window,
        traced: cli.traced,
        smoke: cli.smoke,
    };
    let outcome = run_workload(workload, &opts)?;
    for m in &outcome.metrics {
        println!("{}", m.line(workload));
    }
    if let (Some(dir), Some(rec)) = (&cli.trace_out, &outcome.recorder) {
        let doc = rec.chrome_json();
        let check =
            validate_chrome_trace(&doc).map_err(|e| format!("trace export is invalid: {e}"))?;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}-seed{}.trace.json", cli.seed));
        std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "wrote {} ({} spans; {} operations measured)",
            path.display(),
            check.spans,
            rec.ops()
        );
    }
    let mut names = Vec::new();
    if cli.window {
        names.extend(listed.end_to_end);
    }
    if cli.traced {
        names.extend(listed.per_layer);
    }
    println!("{}", result_line(&outcome, &names)?);
    Ok(if outcome.failed == 0 { 0 } else { 1 })
}

/// Runs every workload, window then traced pass, each in a child process
/// so that `peak_rss_mb` belongs to one workload, and collects their
/// output.
fn run_all(cli: &Cli) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string(), "--trace", "both"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if cli.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &cli.trace_out {
            cmd.arg("--trace-out").arg(dir);
        }
        let child = cmd
            .output()
            .map_err(|e| format!("{name}: cannot run child: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let verdict = json::parse(last)
            .map_err(|_| format!("{name} ended with {} and no result line", child.status))?;
        let count = |k: &str| verdict.get(k).and_then(Value::as_num).unwrap_or(0.0) as u64;
        let result = WorkloadResult {
            name: name.into(),
            correct: verdict.get("correct") == Some(&Value::Bool(true)),
            attempted: count("attempted"),
            failed: count("failed"),
            metrics: stdout
                .lines()
                .filter_map(Metric::parse_line)
                .map(|(_, m)| m)
                .collect(),
        };
        workloads.push(result);
    }
    let all_correct = workloads.iter().all(|w| w.correct);
    let run = RunFile {
        seed: cli.seed,
        seconds: cli.seconds,
        nproc: nproc(),
        cpu_model: cpu_model(),
        rustc: rustc_version(),
        workloads,
    };
    if let Some(out) = &cli.out {
        std::fs::write(out, run.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("wrote {}", out.display());
    }
    Ok(if all_correct { 0 } else { 1 })
}

fn read_runs(list: &str) -> Result<Vec<RunFile>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            RunFile::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn compare_cmd(args: &[String]) -> Result<i32, String> {
    let [base, change] = args else {
        return Err(USAGE.into());
    };
    let rows = compare(&read_runs(base)?, &read_runs(change)?);
    print!("{}", format_rows(&rows));
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        1
    } else {
        0
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_cmd(&args[1..])
    } else if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        Ok(0)
    } else {
        listed()
            .and_then(|l| parse_cli(&args, l.run_seconds))
            .and_then(|cli| match &cli.workload {
                Some(w) => run_one(w, &cli),
                None => run_all(&cli),
            })
    };
    std::process::exit(result.unwrap_or_else(|e| {
        eprintln!("lowbit-benchmark: {e}\n{USAGE}");
        2
    }));
}
