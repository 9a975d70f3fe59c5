//! What every workload shares: run options, repeated set-up, the closed
//! measurement loop, and turning a window into end-to-end metrics.

use crate::metric::{Clock, Metric};
use crate::reference::par_map;
use crate::spans::Recorder;
use crate::stats::{median, nearest_rank, tail};
use crate::sys::{nproc, peak_rss_mb};
use lowbit::ArmEngine;
use std::time::{Duration, Instant};

/// Times set-up is repeated per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// How one workload run is driven.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the untraced window and of the traced pass, in seconds.
    pub seconds: f64,
    /// Run the untraced window (end-to-end metrics).
    pub window: bool,
    /// Then run the traced layer replays (per-layer metrics), after the
    /// window's peak-memory reading.
    pub traced: bool,
    /// One set-up and one distinct input per workload (the smoke test).
    pub smoke: bool,
}

impl Options {
    /// How many set-ups to time (only the window reports `setup_s`).
    pub fn setup_repeats(&self) -> usize {
        if self.smoke || !self.window {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// How many distinct inputs a workload cycles through, given its own
    /// count.
    pub fn distinct(&self, count: usize) -> usize {
        if self.smoke {
            1
        } else {
            count
        }
    }

    /// The instant the window that starts now must end.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Every metric the run's passes measured.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: typed errors, rejections, and outputs that
    /// are not bit-exact against the reference.
    pub failed: u64,
    /// The traced pass's spans, when it ran.
    pub recorder: Option<Recorder>,
}

/// Runs `setup` `repeats` times, timing each from scratch, and keeps the
/// last result; the earlier ones are dropped before the next starts.
pub fn repeat_setup<T, E>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, Vec<f64>), E> {
    let mut last = None;
    let mut secs = Vec::with_capacity(repeats);
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), secs))
}

/// Outputs of a window: which input each operation used and the digest of
/// what it returned.
#[derive(Default)]
pub struct Outputs {
    /// `(input index, output digest)` per successful operation.
    pub digests: Vec<(usize, u64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Typed errors and rejections.
    pub errors: u64,
}

impl Outputs {
    /// Records one operation's result.
    pub fn record<E>(&mut self, input: usize, result: Result<u64, E>) {
        self.attempted += 1;
        match result {
            Ok(d) => self.digests.push((input, d)),
            Err(_) => self.errors += 1,
        }
    }

    /// Distinct inputs that produced at least one output, ascending.
    pub fn inputs_used(&self) -> Vec<usize> {
        let mut used: Vec<usize> = self.digests.iter().map(|&(i, _)| i).collect();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Failed operations once every output digest is compared with the
    /// reference digest of its input (`reference(i)` for input `i`).
    pub fn failed(&self, reference: impl Fn(usize) -> u64) -> u64 {
        self.errors
            + self
                .digests
                .iter()
                .filter(|&&(i, d)| d != reference(i))
                .count() as u64
    }
}

/// A closed-loop window: one client issues the next operation when the
/// previous returns, cycling through `inputs` distinct inputs, until
/// `seconds` have passed (at least one operation).
pub struct Window {
    /// Per successful operation, the time of each public call it made, in
    /// milliseconds (one entry for a one-call operation).
    pub calls_ms: Vec<Vec<f64>>,
    /// Outputs to check.
    pub outputs: Outputs,
    /// Window length in seconds, up to the end of the last operation.
    pub secs: f64,
}

/// Runs `f` and returns its result with its duration in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// What one measured operation returns: the time of each public call it
/// made, in milliseconds (timed with [`timed`], so the benchmark's own work
/// stays outside), and its output digest.
pub type Measured<E> = Result<(Vec<f64>, u64), E>;

/// Runs a closed-loop window; `op(i)` runs the operation on input `i`.
pub fn closed_loop<E>(
    seconds: f64,
    inputs: usize,
    mut op: impl FnMut(usize) -> Measured<E>,
) -> Window {
    let start = Instant::now();
    let mut w = Window {
        calls_ms: Vec::new(),
        outputs: Outputs::default(),
        secs: 0.0,
    };
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let input = i % inputs;
        let r = op(input);
        let digest = r.map(|(calls, d)| {
            w.calls_ms.push(calls);
            d
        });
        w.outputs.record(input, digest);
        i += 1;
    }
    w.secs = start.elapsed().as_secs_f64();
    w
}

/// The end-to-end metrics every workload reports, from its set-up times,
/// the call times of each completed operation, completed items and window
/// length, and peak resident memory; tail percentiles only where enough
/// samples lie beyond.
///
/// `latency_min_ms` is the one the regression bound is tuned for: the sum,
/// over the calls an operation makes, of each call's fastest time in the
/// window (for a one-call operation, the fastest operation). Other tenants
/// of a shared host only ever add time, in episodes of seconds to minutes
/// that move a window's median by up to a third between consecutive runs;
/// the best time of each call barely moves.
pub fn end_to_end(
    setups: &[f64],
    calls_ms: &[Vec<f64>],
    items: f64,
    secs: f64,
    rss_mb: f64,
) -> Vec<Metric> {
    let latency_ms: Vec<f64> = calls_ms.iter().map(|c| c.iter().sum()).collect();
    let n = latency_ms.len();
    let best = calls_ms.first().map_or(f64::NAN, |first| {
        (0..first.len())
            .map(|j| calls_ms.iter().map(|c| c[j]).fold(f64::INFINITY, f64::min))
            .sum()
    });
    let mut m = vec![
        Metric::host(
            "setup_s",
            median(setups).expect("at least one set-up"),
            "s",
            setups.len(),
        ),
        Metric::host("latency_min_ms", best, "ms", n),
        Metric::host(
            "latency_p10_ms",
            nearest_rank(&latency_ms, 10.0).unwrap_or(f64::NAN),
            "ms",
            n,
        ),
        Metric::host(
            "latency_p50_ms",
            median(&latency_ms).unwrap_or(f64::NAN),
            "ms",
            n,
        ),
        Metric::host("throughput_per_s", items / secs, "1/s", n),
        Metric::host("peak_rss_mb", rss_mb, "MB", 1),
    ];
    for (name, p) in [("latency_p95_ms", 95.0), ("latency_p99_ms", 99.0)] {
        if let Some(v) = tail(&latency_ms, p) {
            m.push(Metric::host(name, v, "ms", n));
        }
    }
    m
}

/// The untraced window of a closed-loop workload on one ARM engine: its
/// end-to-end metrics (`items_per_op` items per operation) plus the
/// engine's prepack misses and workspace growth events during the window,
/// which a warm engine keeps at zero.
pub fn arm_window<E>(
    engine: &ArmEngine,
    setups: &[f64],
    opts: &Options,
    inputs: usize,
    items_per_op: usize,
    op: impl FnMut(usize) -> Measured<E>,
) -> Result<(Vec<Metric>, Outputs), String> {
    let (pack0, ws0) = (engine.prepack_stats(), engine.workspace_stats());
    let w = closed_loop(opts.seconds, inputs, op);
    let rss = peak_rss_mb()?;
    let (pack1, ws1) = (engine.prepack_stats(), engine.workspace_stats());
    let ops = w.outputs.attempted as usize;
    let mut m = end_to_end(
        setups,
        &w.calls_ms,
        (w.calls_ms.len() * items_per_op) as f64,
        w.secs,
        rss,
    );
    m.push(Metric::host(
        "arm.prepack_misses_steady",
        (pack1.misses - pack0.misses) as f64,
        "count",
        ops,
    ));
    m.push(Metric::host(
        "arm.workspace_alloc_events_steady",
        (ws1.alloc_events - ws0.alloc_events) as f64,
        "count",
        ops,
    ));
    Ok((m, w.outputs))
}

/// Compares every recorded output with the reference digest of its input
/// (`reference(i)`, computed once per distinct input used, in parallel)
/// and assembles the run's outcome with its `error_share`.
pub fn check(
    mut metrics: Vec<Metric>,
    outputs: Outputs,
    recorder: Option<Recorder>,
    reference: impl Fn(usize) -> u64 + Sync,
) -> Outcome {
    let used = outputs.inputs_used();
    let refs = par_map(&used, nproc(), |&i| reference(i));
    let failed = outputs.failed(|i| {
        refs[used
            .binary_search(&i)
            .expect("every recorded input has a reference")]
    });
    metrics.push(Metric::host(
        "error_share",
        failed as f64 / outputs.attempted.max(1) as f64,
        "share",
        outputs.attempted as usize,
    ));
    Outcome {
        metrics,
        attempted: outputs.attempted,
        failed,
        recorder,
    }
}

/// A metric from a compiled plan or the cost model rather than the host
/// clock.
pub fn fact(name: &str, value: f64, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        clock,
        n: 1,
    }
}

/// Alternates the operation untraced and under a recording tracer until
/// `until` (at least one pair) and reports the traced median's excess over
/// the untraced one. Both outputs go to `outputs` for the reference check.
pub fn overhead_share<E>(
    until: Instant,
    outputs: &mut Outputs,
    input: usize,
    mut plain: impl FnMut() -> Measured<E>,
    mut traced: impl FnMut() -> Measured<E>,
) -> Metric {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    while off.is_empty() || Instant::now() < until {
        for (op, times) in [
            (&mut plain as &mut dyn FnMut() -> Measured<E>, &mut off),
            (&mut traced, &mut on),
        ] {
            let r = op();
            let digest = r.map(|(calls, d)| {
                times.push(calls.iter().sum::<f64>());
                d
            });
            outputs.record(input, digest);
        }
    }
    let share = match (median(&on), median(&off)) {
        (Some(on), Some(off)) => on / off - 1.0,
        _ => f64::NAN,
    };
    Metric::host("trace.overhead_share", share, "share", off.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_cycles_inputs_and_counts_errors() {
        let op = |i: usize| {
            let ((), ms) = timed(|| std::thread::sleep(Duration::from_millis(1)));
            if i == 1 {
                Err(())
            } else {
                Ok((vec![ms], i as u64 * 10))
            }
        };
        let w = closed_loop(0.0, 3, op);
        assert_eq!(
            w.outputs.attempted, 1,
            "a zero window still runs one operation"
        );
        assert!(w.calls_ms[0][0] >= 1.0);
        let w = closed_loop(0.02, 3, op);
        assert!(w.outputs.attempted >= 3);
        assert_eq!(
            w.calls_ms.len() as u64,
            w.outputs.attempted - w.outputs.errors
        );
        assert_eq!(w.outputs.inputs_used(), vec![0, 2]);
        assert_eq!(w.outputs.failed(|i| i as u64 * 10), w.outputs.errors);
        assert_eq!(
            w.outputs.failed(|_| 0),
            w.outputs.attempted - w.outputs.digests.iter().filter(|d| d.0 == 0).count() as u64
        );
    }

    #[test]
    fn tails_appear_only_with_enough_samples() {
        let few: Vec<Vec<f64>> = (1..=50).map(|v| vec![f64::from(v)]).collect();
        let m = end_to_end(&[1.0], &few, 50.0, 1.0, 10.0);
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "latency_min_ms",
                "latency_p10_ms",
                "latency_p50_ms",
                "throughput_per_s",
                "peak_rss_mb"
            ]
        );
        assert_eq!((m[1].value, m[2].value, m[3].value), (1.0, 5.0, 25.0));
        let many: Vec<Vec<f64>> = (0..1000).map(|v| vec![f64::from(v)]).collect();
        assert_eq!(end_to_end(&[1.0], &many, 1.0, 1.0, 1.0).len(), 8);
    }

    #[test]
    fn best_time_sums_each_calls_fastest() {
        // Operations of 5, 4.5 and 9 ms; the best call times 1 + 2 + 0.5 never
        // occurred together in one operation.
        let ops = vec![
            vec![1.0, 3.0, 1.0],
            vec![2.0, 2.0, 0.5],
            vec![4.0, 2.0, 3.0],
        ];
        let m = end_to_end(&[1.0], &ops, 3.0, 1.0, 1.0);
        assert_eq!(m[1].value, 3.5);
    }

    #[test]
    fn setup_keeps_the_last_result_and_times_each() {
        let mut k = 0;
        let (last, secs) = repeat_setup(3, || -> Result<i32, ()> {
            k += 1;
            Ok(k)
        })
        .unwrap();
        assert_eq!((last, secs.len()), (3, 3));
    }
}
