//! The traced pass's recorder: one span per public call the benchmark makes,
//! kept in memory, plus per-operation sums that become the per-layer
//! metrics. Spans are recorded around calls into the program, never inside
//! it.

use crate::metric::Metric;
use crate::stats::median;
use lowbit::trace::chrome::chrome_trace_json;
use lowbit::trace::{SpanKind, SpanRecord, TraceCapture};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call (or, with `name == "op"`, one whole operation).
#[derive(Clone, Debug)]
pub struct Span {
    /// The public call, e.g. `ArmEngine::conv`.
    pub name: &'static str,
    /// What it ran on (layer name, bucket, algorithm).
    pub label: String,
    /// The operation the call belongs to (its parent span).
    pub op: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Work behind a rate metric: `(rate name, time metric, work units)`.
type Work = (&'static str, String, f64);

/// Spans kept for export: whole operations are kept until this many spans
/// are held, so a trace shows complete operations and stays small enough
/// to load and validate quickly. Metrics use every operation.
pub const SPAN_BUDGET: usize = 1024;

/// Records spans and turns per-operation sums into per-layer metrics.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Whether the current operation's spans are kept.
    keep: bool,
    ops: u64,
    sums: BTreeMap<String, (f64, &'static str)>,
    work: Vec<Work>,
    samples: BTreeMap<String, (Vec<f64>, &'static str)>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            keep: true,
            ops: 0,
            sums: BTreeMap::new(),
            work: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs one operation: an `op` span around `body`, whose per-metric
    /// sums become one sample of each metric.
    pub fn op<T>(&mut self, body: impl FnOnce(&mut Recorder) -> T) -> T {
        self.keep = self.spans.len() < SPAN_BUDGET;
        let start = Instant::now();
        let out = body(self);
        let end = Instant::now();
        let id = self.ops;
        if self.keep {
            self.spans.push(Span {
                name: "op",
                label: format!("op {id}"),
                op: id,
                start_ns: self.ns(start),
                dur_ns: end.duration_since(start).as_nanos() as u64,
            });
        }
        self.ops += 1;
        for (rate, time, units) in std::mem::take(&mut self.work) {
            if let Some(&(ms, _)) = self.sums.get(&time) {
                if ms > 0.0 {
                    self.add(rate, "GMAC/s", units / ms / 1e6);
                }
            }
        }
        for (name, (v, unit)) in std::mem::take(&mut self.sums) {
            self.samples
                .entry(name)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(v);
        }
        out
    }

    /// Times one call, records its span, and adds its milliseconds to each
    /// metric in `metrics`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        label: &str,
        metrics: &[&str],
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let dur = end.duration_since(start);
        if self.keep {
            self.spans.push(Span {
                name,
                label: label.to_string(),
                op: self.ops,
                start_ns: self.ns(start),
                dur_ns: dur.as_nanos() as u64,
            });
        }
        for m in metrics {
            self.add(m, "ms", dur.as_secs_f64() * 1e3);
        }
        out
    }

    /// Adds `value` to this operation's sum of `metric`.
    pub fn add(&mut self, metric: &str, unit: &'static str, value: f64) {
        self.sums.entry(metric.to_string()).or_insert((0.0, unit)).0 += value;
    }

    /// Records `macs` of work done under the time metric `time`; at the end
    /// of the operation the rate metric `rate` (GMAC/s) is derived from them.
    pub fn work(&mut self, rate: &'static str, time: &str, macs: u64) {
        match self.work.iter_mut().find(|(r, _, _)| *r == rate) {
            Some(w) => w.2 += macs as f64,
            None => self.work.push((rate, time.to_string(), macs as f64)),
        }
    }

    /// The current operation's sum of `metric` so far (0 if none).
    pub fn sum(&self, metric: &str) -> f64 {
        self.sums.get(metric).map_or(0.0, |s| s.0)
    }

    /// Operations recorded so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The median over operations of every metric, with the operation
    /// count as its sample count.
    pub fn metrics(&self) -> Vec<Metric> {
        self.samples
            .iter()
            .map(|(name, (values, unit))| {
                Metric::host(
                    name.clone(),
                    median(values).expect("one sample per op"),
                    unit,
                    values.len(),
                )
            })
            .collect()
    }

    /// The spans as a Chrome trace-event document (one track; each call
    /// nests inside its operation's span).
    pub fn chrome_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| SpanRecord {
                name: s.name.to_string(),
                kind: SpanKind::Wall,
                track: 0,
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                label: Some(if s.name == "op" {
                    s.label.clone()
                } else {
                    format!("{} (op {})", s.label, s.op)
                }),
                attr: None,
            })
            .collect();
        chrome_trace_json(&TraceCapture {
            spans,
            ..TraceCapture::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit::trace::chrome::validate_chrome_trace;

    #[test]
    fn ops_become_samples_and_spans_nest() {
        let mut rec = Recorder::new();
        for i in 0..3u64 {
            rec.op(|rec| {
                rec.call("work", "a", &["t.ms", "u.ms"], || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
                rec.work("t.gmacps", "t.ms", 1_000_000 * (i + 1));
                rec.add("count", "count", 2.0);
            });
        }
        let m = rec.metrics();
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().clone();
        assert_eq!(get("count").value, 2.0);
        assert_eq!(get("t.ms").n, 3);
        assert!(get("t.ms").value >= 1.0);
        assert!(get("t.gmacps").value > 0.0);
        let v = validate_chrome_trace(&rec.chrome_json()).unwrap();
        assert_eq!(v.spans, 6);
    }

    #[test]
    fn the_span_budget_keeps_whole_operations_and_every_sample() {
        let mut rec = Recorder::new();
        let ops = SPAN_BUDGET / 2;
        for _ in 0..ops {
            rec.op(|rec| {
                for _ in 0..3 {
                    rec.call("work", "a", &["t.ms"], || ());
                }
            });
        }
        // Four spans per operation: operations stop being kept once the
        // budget is reached, never midway.
        assert_eq!(rec.spans.len(), SPAN_BUDGET);
        assert_eq!(rec.metrics()[0].n, ops);
        validate_chrome_trace(&rec.chrome_json()).unwrap();
    }
}
