//! End-to-end smoke: every workload with one-second windows, one set-up and
//! one distinct input (so the reference stays small), untraced and traced,
//! through the same binary and output format a full run uses.

use lowbit::trace::chrome::validate_chrome_trace;
use lowbit::trace::json::{self, Value};
use lowbit_benchmark::report::{RunFile, BENCHMARK_JSON};
use lowbit_benchmark::WORKLOADS;
use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lowbit-benchmark"))
}

/// `(name, unit)` of every metric a `BENCHMARK.json` list names.
fn listed(key: &str) -> Vec<(String, String)> {
    let doc = json::parse(BENCHMARK_JSON).unwrap();
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_covers_every_workload_and_every_listed_metric() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = tmp.join("smoke-run.json");
    let traces = tmp.join("smoke-traces");
    let run = bin()
        .args(["--smoke", "--seed", "3", "--seconds", "1", "--out"])
        .arg(&out)
        .arg("--trace-out")
        .arg(&traces)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let file = RunFile::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(file.seed, 3);
    let names: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    for w in &file.workloads {
        assert!(
            w.correct && w.failed == 0 && w.attempted > 0,
            "{}: {w:?}",
            w.name
        );
        for (name, unit) in listed("end_to_end").into_iter().chain(listed("per_layer")) {
            let m = w
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name));
            assert_eq!(m.unit, unit, "{}: {name}", w.name);
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {name} = {}",
                w.name,
                m.value
            );
        }
        let error_share = w.metrics.iter().find(|m| m.name == "error_share").unwrap();
        assert_eq!(error_share.value, 0.0, "{}", w.name);
        let trace = traces.join(format!("{}-seed3.trace.json", w.name));
        let check = validate_chrome_trace(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(check.spans > 0, "{}", w.name);
    }
}

#[test]
fn a_workload_run_ends_with_exactly_the_listed_result() {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let run = bin()
            .args([
                "--workload",
                "serve-mix",
                "--smoke",
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).unwrap();
        let last = json::parse(stdout.lines().last().unwrap()).unwrap();
        let Value::Obj(fields) = &last else {
            panic!("not an object: {last:?}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Obj(metrics)) = last.get("metrics") else {
            panic!("no metrics object")
        };
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(got, listed(key), "trace {trace}");
        // Every earlier line is a metric line.
        for line in stdout.lines().rev().skip(1) {
            assert!(
                lowbit_benchmark::metric::Metric::parse_line(line).is_some(),
                "{line}"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "x"],
        &["--workload", "dense-w8"],
        &["--trace", "2"],
    ] {
        let run = bin().args(args).output().unwrap();
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}
