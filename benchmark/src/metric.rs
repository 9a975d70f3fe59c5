//! Metric records, their one-line text form, and the end-to-end catalog with
//! the regression bounds `compare` applies.

use std::fmt;

/// Which clock a number comes from. No metric mixes two.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Measured wall time (or a count/size observed) on the host running the
    /// Rust code.
    Host,
    /// The Cortex-A53 cost model.
    Modeled,
    /// Derived from a compiled plan without running it.
    Computed,
}

impl Clock {
    /// The name printed in metric lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
            Clock::Computed => "computed",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Clock> {
        [Clock::Host, Clock::Modeled, Clock::Computed]
            .into_iter()
            .find(|c| c.as_str() == s)
    }
}

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `MB`, `count`.
    pub unit: &'static str,
    /// Clock the value comes from.
    pub clock: Clock,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// A host-clock metric.
    pub fn host(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            clock: Clock::Host,
            n,
        }
    }

    /// The metric line `workload metric value unit clock n=samples`.
    pub fn line(&self, workload: &str) -> String {
        format!(
            "{workload} {} {} {} {} n={}",
            self.name,
            self.value,
            self.unit,
            self.clock.as_str(),
            self.n
        )
    }

    /// Parses a metric line back into `(workload, metric)`; `None` for any
    /// other line.
    pub fn parse_line(line: &str) -> Option<(String, Metric)> {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [workload, name, value, unit, clock, n] = f.as_slice() else {
            return None;
        };
        let metric = Metric {
            name: name.to_string(),
            value: value.parse().ok()?,
            unit: intern_unit(unit)?,
            clock: Clock::parse(clock)?,
            n: n.strip_prefix("n=")?.parse().ok()?,
        };
        Some((workload.to_string(), metric))
    }
}

/// Every unit the benchmark prints.
pub const UNITS: [&str; 10] = [
    "s", "ms", "us", "1/s", "MB", "GMAC/s", "share", "count", "bytes", "x",
];

pub(crate) fn intern_unit(unit: &str) -> Option<&'static str> {
    UNITS.into_iter().find(|u| *u == unit)
}

/// Whether larger or smaller is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better (times, memory, errors).
    Lower,
    /// Larger is better (throughput, SLO attainment).
    Higher,
}

impl fmt::Display for Better {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        })
    }
}

/// How far a metric may get worse against the parent before it counts as a
/// regression.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Bound {
    /// A share of the parent's median.
    Share(f64),
    /// An absolute amount in the metric's unit.
    Abs(f64),
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, all on the host clock and measured untraced.
///
/// The first three are the ones `BENCHMARK.json` lists (a test keeps the
/// two equal): every workload reports them and their run-to-run spread on
/// a shared host stays inside their bound. The rest are
/// reported and compared too, but either only some workloads have them
/// (tail percentiles need ten samples beyond them, the SLO share needs a
/// latency limit) or they track whole-window contention on a shared host
/// (the median, and throughput, which for one closed-loop client is the
/// inverse mean latency).
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, Bound::Share(0.25)),
    e2e("latency_min_ms", "ms", Better::Lower, Bound::Share(0.24)),
    e2e("peak_rss_mb", "MB", Better::Lower, Bound::Share(0.2)),
    e2e("latency_p10_ms", "ms", Better::Lower, Bound::Share(0.1)),
    e2e("latency_p50_ms", "ms", Better::Lower, Bound::Share(0.1)),
    e2e("latency_p95_ms", "ms", Better::Lower, Bound::Share(0.15)),
    e2e("latency_p99_ms", "ms", Better::Lower, Bound::Share(0.15)),
    e2e("throughput_per_s", "1/s", Better::Higher, Bound::Share(0.1)),
    e2e("slo_met_share", "share", Better::Higher, Bound::Abs(0.02)),
    e2e("error_share", "share", Better::Lower, Bound::Abs(0.0)),
];

/// The catalog entry of an end-to-end metric.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether a name is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let m = Metric {
            name: "conv.gemm_wide_ms".into(),
            value: 12.0625,
            unit: "ms",
            clock: Clock::Host,
            n: 7,
        };
        let line = m.line("bottleneck-w4");
        assert_eq!(line, "bottleneck-w4 conv.gemm_wide_ms 12.0625 ms host n=7");
        assert_eq!(
            Metric::parse_line(&line),
            Some(("bottleneck-w4".to_string(), m))
        );
        assert_eq!(Metric::parse_line("{\"correct\": true}"), None);
        assert_eq!(Metric::parse_line("a b 1 furlong host n=1"), None);
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        for (i, m) in END_TO_END.iter().enumerate() {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(UNITS.contains(&m.unit), "{}", m.unit);
            assert!(END_TO_END[i + 1..].iter().all(|o| o.name != m.name));
        }
        assert!(!valid_name("a b") && !valid_name(""));
    }
}
