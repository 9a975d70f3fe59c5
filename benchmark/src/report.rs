//! The benchmark's outputs: the one-line result of a workload run, the file
//! a full run writes, and `compare` over such files.

use crate::harness::Outcome;
use crate::metric::{end_to_end, intern_unit, Better, Bound, Clock, Metric, END_TO_END};
use crate::stats::{quartiles, runs_median};
use lowbit::trace::json::{self, escape, Value};

/// `BENCHMARK.json` as this binary was built with it.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The metric names `BENCHMARK.json` lists.
pub struct Listed {
    /// End-to-end metrics: the result line after an untraced window.
    pub end_to_end: Vec<String>,
    /// Per-layer metrics: the result line after a traced pass.
    pub per_layer: Vec<String>,
    /// The window of one run in seconds.
    pub run_seconds: f64,
}

fn names(doc: &Value, key: &str) -> Result<Vec<String>, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json: no {key} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("{key}: entry without a name"))
        })
        .collect()
}

/// Parses the built-in `BENCHMARK.json`.
pub fn listed() -> Result<Listed, String> {
    let doc = json::parse(BENCHMARK_JSON)?;
    Ok(Listed {
        end_to_end: names(&doc, "end_to_end")?,
        per_layer: names(&doc, "per_layer")?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_num)
            .ok_or("BENCHMARK.json: no run_seconds")?,
    })
}

/// The last line a workload run prints: whether every output was correct,
/// how many operations were attempted and failed, and exactly the listed
/// metrics with their units.
pub fn result_line(outcome: &Outcome, listed: &[String]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(listed.len());
    for name in listed {
        let m = outcome
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is {}", m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(name),
            m.value,
            m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

/// One workload's part of a full run.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Every output bit-exact and no operation failed.
    pub correct: bool,
    /// Operations attempted (window and traced pass together).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end and per-layer metrics.
    pub metrics: Vec<Metric>,
}

/// A full run: every workload's window and traced pass, with the host it
/// ran on.
#[derive(Clone, Debug, PartialEq)]
pub struct RunFile {
    /// Input seed.
    pub seed: u64,
    /// Window of each run in seconds.
    pub seconds: f64,
    /// Logical CPUs.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

impl RunFile {
    /// The file as JSON.
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                let metrics: Vec<String> = w
                    .metrics
                    .iter()
                    .map(|m| {
                        format!(
                            "        {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"clock\": \"{}\", \"n\": {}}}",
                            escape(&m.name),
                            m.value,
                            m.unit,
                            m.clock.as_str(),
                            m.n
                        )
                    })
                    .collect();
                format!(
                    "    {{\n      \"name\": \"{}\",\n      \"correct\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \"metrics\": [\n{}\n      ]\n    }}",
                    escape(&w.name),
                    w.correct,
                    w.attempted,
                    w.failed,
                    metrics.join(",\n")
                )
            })
            .collect();
        format!(
            "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"cpu_model\": \"{}\",\n  \"rustc\": \"{}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
            self.seed,
            self.seconds,
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.rustc),
            workloads.join(",\n")
        )
    }

    /// Parses a file written by [`RunFile::to_json`].
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let doc = json::parse(text)?;
        let num = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_num)
                .ok_or(format!("missing number {k}"))
        };
        let string = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string {k}"))
        };
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("missing workloads")?
            .iter()
            .map(|w| {
                let metrics = w
                    .get("metrics")
                    .and_then(Value::as_arr)
                    .ok_or("missing metrics")?
                    .iter()
                    .map(|m| {
                        let unit = string(m, "unit")?;
                        let clock = string(m, "clock")?;
                        Ok(Metric {
                            name: string(m, "name")?,
                            value: num(m, "value")?,
                            unit: intern_unit(&unit).ok_or(format!("unknown unit {unit}"))?,
                            clock: Clock::parse(&clock).ok_or(format!("unknown clock {clock}"))?,
                            n: num(m, "n")? as usize,
                        })
                    })
                    .collect::<Result<Vec<Metric>, String>>()?;
                Ok(WorkloadResult {
                    name: string(w, "name")?,
                    correct: w.get("correct") == Some(&Value::Bool(true)),
                    attempted: num(w, "attempted")? as u64,
                    failed: num(w, "failed")? as u64,
                    metrics,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunFile {
            seed: num(&doc, "seed")? as u64,
            seconds: num(&doc, "seconds")?,
            nproc: num(&doc, "nproc")? as usize,
            cpu_model: string(&doc, "cpu_model")?,
            rustc: string(&doc, "rustc")?,
            workloads,
        })
    }

    fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        let w = self.workloads.iter().find(|w| w.name == workload)?;
        w.metrics
            .iter()
            .find(|m| m.name == metric && m.clock == Clock::Host)
            .map(|m| m.value)
    }
}

/// A comparison verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// The runs cannot tell: the base's own spread exceeds the bound, or one
    /// side lacks the metric.
    Unresolved,
}

/// One `(workload, metric)` row of a comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// End-to-end metric.
    pub metric: &'static str,
    /// Median over the base runs.
    pub base: Option<f64>,
    /// Median over the change runs.
    pub change: Option<f64>,
    /// How much worse the change is, in the bound's terms (share or
    /// absolute; negative is better).
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Applies each end-to-end metric's bound to every `(metric, workload)`
/// pair of two sets of full runs. With two or more base runs, a metric
/// whose base quartile distance exceeds its bound is unresolved unless
/// every change run reads better than every base run.
pub fn compare(base: &[RunFile], change: &[RunFile]) -> Vec<Row> {
    let mut workloads: Vec<String> = Vec::new();
    for run in base.iter().chain(change) {
        for w in &run.workloads {
            if !workloads.contains(&w.name) {
                workloads.push(w.name.clone());
            }
        }
    }
    let mut rows = Vec::new();
    for workload in &workloads {
        for def in &END_TO_END {
            let b: Vec<f64> = base
                .iter()
                .filter_map(|r| r.value(workload, def.name))
                .collect();
            let c: Vec<f64> = change
                .iter()
                .filter_map(|r| r.value(workload, def.name))
                .collect();
            if b.is_empty() && c.is_empty() {
                continue;
            }
            let (bm, cm) = (runs_median(&b), runs_median(&c));
            let (Some(bm), Some(cm)) = (bm, cm) else {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: def.name,
                    base: bm,
                    change: cm,
                    worse_by: 0.0,
                    verdict: Verdict::Unresolved,
                });
                continue;
            };
            let signed = |from: f64, to: f64| match def.better {
                Better::Lower => to - from,
                Better::Higher => from - to,
            };
            let (worse_by, limit, base_spread) = match def.bound {
                Bound::Share(s) => {
                    let rel = |d: f64| {
                        if bm == 0.0 {
                            if d > 0.0 {
                                f64::INFINITY
                            } else {
                                0.0
                            }
                        } else {
                            d / bm.abs()
                        }
                    };
                    (
                        rel(signed(bm, cm)),
                        s,
                        quartiles(&b).map(|(q1, q3)| rel(q3 - q1)),
                    )
                }
                Bound::Abs(a) => (signed(bm, cm), a, quartiles(&b).map(|(q1, q3)| q3 - q1)),
            };
            let every_change_better = b.iter().all(|&x| c.iter().all(|&y| signed(x, y) < 0.0));
            let verdict = match base_spread {
                Some(s) if s > limit && !every_change_better => Verdict::Unresolved,
                Some(s) if s > limit => Verdict::Within,
                _ if worse_by > limit => Verdict::Worse,
                _ => Verdict::Within,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                base: Some(bm),
                change: Some(cm),
                worse_by,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as an aligned text table, one row per pair.
pub fn format_rows(rows: &[Row]) -> String {
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    let mut out = format!(
        "{:<22} {:<18} {:>12} {:>12} {:>10} {:>10}  verdict\n",
        "workload", "metric", "base", "change", "worse_by", "bound"
    );
    for r in rows {
        let def = end_to_end(r.metric).expect("rows come from the catalog");
        let (worse, bound) = match def.bound {
            Bound::Share(s) => (
                format!("{:+.1}%", r.worse_by * 100.0),
                format!("{:.0}%", s * 100.0),
            ),
            Bound::Abs(a) => (format!("{:+.4}", r.worse_by), format!("{a}")),
        };
        let verdict = match r.verdict {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        };
        out += &format!(
            "{:<22} {:<18} {:>12} {:>12} {:>10} {:>10}  {verdict}\n",
            r.workload,
            r.metric,
            fmt(r.base),
            fmt(r.change),
            worse,
            bound
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{valid_name, UNITS};

    fn run(values: &[(&str, f64)]) -> RunFile {
        RunFile {
            seed: 1,
            seconds: 1.0,
            nproc: 2,
            cpu_model: "cpu \"x\"".into(),
            rustc: "rustc".into(),
            workloads: vec![WorkloadResult {
                name: "w".into(),
                correct: true,
                attempted: 3,
                failed: 0,
                metrics: values
                    .iter()
                    .map(|&(n, v)| Metric::host(n, v, "ms", 4))
                    .collect(),
            }],
        }
    }

    #[test]
    fn run_files_round_trip() {
        let r = run(&[("latency_p50_ms", 1.25), ("conv.ms", 0.5)]);
        assert_eq!(RunFile::parse(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn compare_applies_bounds_by_direction() {
        let verdict = |b: f64, c: f64, metric: &str| {
            let rows = compare(&[run(&[(metric, b)])], &[run(&[(metric, c)])]);
            rows.iter().find(|r| r.metric == metric).unwrap().verdict
        };
        assert_eq!(verdict(100.0, 109.0, "latency_p50_ms"), Verdict::Within);
        assert_eq!(verdict(100.0, 111.0, "latency_p50_ms"), Verdict::Worse);
        assert_eq!(verdict(100.0, 50.0, "latency_p50_ms"), Verdict::Within);
        assert_eq!(verdict(100.0, 89.0, "throughput_per_s"), Verdict::Worse);
        assert_eq!(verdict(100.0, 130.0, "throughput_per_s"), Verdict::Within);
        assert_eq!(verdict(0.98, 0.95, "slo_met_share"), Verdict::Worse);
        assert_eq!(verdict(0.0, 0.001, "error_share"), Verdict::Worse);
        assert_eq!(verdict(0.0, 0.0, "error_share"), Verdict::Within);
    }

    #[test]
    fn a_noisy_base_leaves_the_metric_unresolved() {
        let base: Vec<RunFile> = [80.0, 100.0, 120.0, 90.0]
            .iter()
            .map(|&v| run(&[("latency_p50_ms", v)]))
            .collect();
        let worse = [run(&[("latency_p50_ms", 104.0)])];
        let rows = compare(&base, &worse);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        let better = [run(&[("latency_p50_ms", 70.0)])];
        assert_eq!(compare(&base, &better)[0].verdict, Verdict::Within);
        let missing = compare(&base, &[run(&[])]);
        assert_eq!(missing[0].verdict, Verdict::Unresolved);
        assert!(format_rows(&rows).contains("unresolved"));
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalog() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let listed = listed().unwrap();
        for m in doc.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let def = end_to_end(name).unwrap_or_else(|| panic!("{name} is not in the catalog"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(def.unit),
                "{name}"
            );
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(def.better.to_string().as_str()),
                "{name}"
            );
            let bound = m.get("bound").and_then(Value::as_num).unwrap();
            assert_eq!(def.bound, Bound::Share(bound), "{name}");
        }
        for name in listed.end_to_end.iter().chain(&listed.per_layer) {
            assert!(valid_name(name), "{name}");
        }
        for m in doc.get("per_layer").and_then(Value::as_arr).unwrap() {
            assert!(UNITS.contains(&m.get("unit").and_then(Value::as_str).unwrap()));
        }
        let why = doc.get("workloads").and_then(Value::as_arr).unwrap();
        let serve = why
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(crate::serving::NAME))
            .unwrap();
        let text = serve.get("why").and_then(Value::as_str).unwrap();
        assert!(
            text.contains(&format!("{} req/s", crate::serving::RATE_PER_S)),
            "{text}"
        );
        assert!(
            text.contains(&format!("{} ms", crate::serving::SLO_MS)),
            "{text}"
        );
        let names: Vec<&str> = why
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
