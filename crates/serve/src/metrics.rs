//! Serving-side production metrics and SLO tracking.
//!
//! [`ServeMetrics`] owns every instrument the server and the virtual-time
//! sim record into: per-class stage histograms (queue-wait / batch-form /
//! compile / execute / total), completion and rejection counters (the
//! latter labelled by [`RejectReason`] — satellite: rejected requests get
//! stage attribution too), per-class SLO violation counters with an
//! error-budget burn gauge, and the plan-cache hit-ratio gauge.
//!
//! Worker threads record through [`WorkerShards`] — one private shard set
//! per worker per class — so the hot path never contends on a shared mutex
//! and performs zero steady-state allocations (the old single counter
//! mutex in `server.rs` is gone).

use crate::cache::PlanCacheStats;
use crate::server::RequestTiming;
use lowbit_metrics::{Counter, Gauge, HistShard, HistSpec, Histogram, Registry};
use std::sync::Arc;

/// Why a request left the server without a completed response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// Typed backpressure at admission: the class queue was at depth.
    QueueFull,
    /// The submitted tensor had the wrong dimensions or a NaN/±inf element.
    BadInput,
    /// Plan compilation failed for the batch.
    CompileError,
    /// Batched execution failed.
    ExecError,
}

impl RejectReason {
    /// The `reason` label value.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::BadInput => "bad_input",
            RejectReason::CompileError => "compile_error",
            RejectReason::ExecError => "exec_error",
        }
    }

    const ALL: [RejectReason; 4] = [
        RejectReason::QueueFull,
        RejectReason::BadInput,
        RejectReason::CompileError,
        RejectReason::ExecError,
    ];
}

/// The stage histograms for one class. Shared family handles — workers get
/// private shards of these via [`ServeMetrics::worker_shards`].
struct ClassInstruments {
    queue_wait: Histogram,
    batch_form: Histogram,
    compile: Histogram,
    execute: Histogram,
    total: Histogram,
    rejected_wait: Histogram,
    completed: Counter,
    slo_violations: Counter,
    budget_burn: Gauge,
    rejected: [Counter; 4],
}

/// One worker's private recording shards for one class.
pub struct ClassShards {
    queue_wait: HistShard,
    batch_form: HistShard,
    compile: HistShard,
    execute: HistShard,
    total: HistShard,
}

/// One worker's shard set across every class. Created once per worker
/// thread; recording through it locks only this worker's own cells.
pub struct WorkerShards {
    classes: Vec<ClassShards>,
}

/// The serving metrics surface: registered once at server start, recorded
/// into by workers (via shards) and admission (via counters).
pub struct ServeMetrics {
    registry: Arc<Registry>,
    slo_p99_ms: f64,
    classes: Vec<ClassInstruments>,
    batches: Counter,
    cache_hit_ratio: Gauge,
}

impl ServeMetrics {
    /// Registers the full instrument set for `class_names` into `registry`.
    /// `slo_p99_ms` is the per-class p99 latency objective: completions
    /// slower than it count as SLO violations, and the error-budget burn
    /// gauge reports the violation rate against the 1% budget a p99
    /// objective implies.
    pub fn new(registry: Arc<Registry>, class_names: &[&str], slo_p99_ms: f64) -> Arc<ServeMetrics> {
        let spec = HistSpec::latency_ms();
        let classes = class_names
            .iter()
            .map(|name| {
                let labels: [(&str, &str); 1] = [("class", name)];
                ClassInstruments {
                    queue_wait: registry.histogram(
                        "serve_queue_wait_ms",
                        "Admission to batch close, per request",
                        &labels,
                        spec,
                    ),
                    batch_form: registry.histogram(
                        "serve_batch_form_ms",
                        "Batch close to worker pickup, per request",
                        &labels,
                        spec,
                    ),
                    compile: registry.histogram(
                        "serve_compile_ms",
                        "Plan lookup (compile on miss) duration, per request",
                        &labels,
                        spec,
                    ),
                    execute: registry.histogram(
                        "serve_execute_ms",
                        "Batched execution duration, per request",
                        &labels,
                        spec,
                    ),
                    total: registry.histogram(
                        "serve_total_ms",
                        "End-to-end request latency",
                        &labels,
                        spec,
                    ),
                    rejected_wait: registry.histogram(
                        "serve_rejected_wait_ms",
                        "Queue wait accumulated by requests that were rejected",
                        &labels,
                        spec,
                    ),
                    completed: registry.counter(
                        "serve_completed_total",
                        "Requests answered successfully",
                        &labels,
                    ),
                    slo_violations: registry.counter(
                        "serve_slo_violations_total",
                        "Completions slower than the p99 objective",
                        &labels,
                    ),
                    budget_burn: registry.gauge(
                        "serve_error_budget_burn",
                        "Violation rate over the 1% budget a p99 objective implies (>1 = burning)",
                        &labels,
                    ),
                    rejected: RejectReason::ALL.map(|reason| {
                        registry.counter(
                            "serve_rejected_total",
                            "Requests rejected, by reason",
                            &[("class", name), ("reason", reason.label())],
                        )
                    }),
                }
            })
            .collect();
        let batches = registry.counter("serve_batches_total", "Batches executed", &[]);
        let cache_hit_ratio = registry.gauge(
            "plan_cache_hit_ratio",
            "Plan-cache hits over all lookups",
            &[],
        );
        Arc::new(ServeMetrics { registry, slo_p99_ms, classes, batches, cache_hit_ratio })
    }

    /// The registry everything lands in (for exposition / snapshots).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The configured p99 objective in milliseconds.
    pub fn slo_p99_ms(&self) -> f64 {
        self.slo_p99_ms
    }

    /// A private shard set for one worker thread (allocates here, never on
    /// the record path).
    pub fn worker_shards(&self) -> WorkerShards {
        WorkerShards {
            classes: self
                .classes
                .iter()
                .map(|c| ClassShards {
                    queue_wait: c.queue_wait.shard(),
                    batch_form: c.batch_form.shard(),
                    compile: c.compile.shard(),
                    execute: c.execute.shard(),
                    total: c.total.shard(),
                })
                .collect(),
        }
    }

    /// Records one completed request's stage attribution through `shards`,
    /// bumps the class completion counter, and updates SLO accounting.
    pub fn record_completion(&self, shards: &WorkerShards, class: usize, timing: &RequestTiming) {
        let s = &shards.classes[class];
        s.queue_wait.record(timing.queue_wait_ms);
        s.batch_form.record(timing.batch_form_ms);
        s.compile.record(timing.compile_ms);
        s.execute.record(timing.execute_ms);
        let total = timing.total_ms();
        s.total.record(total);
        let c = &self.classes[class];
        c.completed.inc();
        if total > self.slo_p99_ms {
            c.slo_violations.inc();
        }
        let completed = c.completed.value();
        let violations = c.slo_violations.value();
        // A p99 objective allows 1% of completions over it; burn is the
        // observed violation rate against that budget.
        let burn = if completed == 0 {
            0.0
        } else {
            (violations as f64 / completed as f64) / 0.01
        };
        c.budget_burn.set(burn);
    }

    /// Records a rejected request: the `reason`-labelled counter plus the
    /// queue wait it accumulated before rejection (satellite: backpressured
    /// requests get stage attribution too). Partial stage times measured
    /// before the failure go through `stages` when a worker had already
    /// picked the batch up.
    pub fn record_rejection(
        &self,
        stages: Option<(&WorkerShards, &RequestTiming)>,
        class: usize,
        reason: RejectReason,
        wait_ms: f64,
    ) {
        let c = &self.classes[class];
        c.rejected[RejectReason::ALL.iter().position(|r| *r == reason).unwrap()].inc();
        c.rejected_wait.record(wait_ms);
        if let Some((shards, timing)) = stages {
            let s = &shards.classes[class];
            s.queue_wait.record(timing.queue_wait_ms);
            s.batch_form.record(timing.batch_form_ms);
            s.compile.record(timing.compile_ms);
        }
    }

    /// Records one executed batch and refreshes the cache hit-ratio gauge.
    pub fn record_batch(&self, cache: &PlanCacheStats) {
        self.batches.inc();
        let total = cache.hits + cache.misses;
        if total > 0 {
            self.cache_hit_ratio.set(cache.hits as f64 / total as f64);
        }
    }

    /// Completions recorded for `class`.
    pub fn completed(&self, class: usize) -> u64 {
        self.classes[class].completed.value()
    }

    /// Rejections recorded for `class` with `reason`.
    pub fn rejected(&self, class: usize, reason: RejectReason) -> u64 {
        self.classes[class].rejected
            [RejectReason::ALL.iter().position(|r| *r == reason).unwrap()]
        .value()
    }

    /// SLO violations recorded for `class`.
    pub fn slo_violations(&self, class: usize) -> u64 {
        self.classes[class].slo_violations.value()
    }

    /// Nearest-rank `q`-th percentile of `class`'s end-to-end latency,
    /// read off the merged histogram (within one bucket width of exact).
    pub fn total_percentile(&self, class: usize, q: f64) -> f64 {
        self.classes[class].total.snapshot().percentile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit::prelude::BackendKind;

    fn timing(total_split: [f64; 4]) -> RequestTiming {
        RequestTiming {
            queue_wait_ms: total_split[0],
            batch_form_ms: total_split[1],
            compile_ms: total_split[2],
            execute_ms: total_split[3],
            plan_cache_hit: true,
            batch_formed: 4,
            batch_bucket: 4,
            backend: BackendKind::Arm,
        }
    }

    #[test]
    fn completions_drive_slo_and_budget_burn() {
        let registry = Arc::new(Registry::new());
        let m = ServeMetrics::new(registry, &["demo"], 10.0);
        let shards = m.worker_shards();
        // 9 fast, 1 slow: 10% violation rate = 10x the 1% budget.
        for _ in 0..9 {
            m.record_completion(&shards, 0, &timing([1.0, 0.5, 0.1, 2.0]));
        }
        m.record_completion(&shards, 0, &timing([30.0, 1.0, 0.1, 5.0]));
        assert_eq!(m.completed(0), 10);
        assert_eq!(m.slo_violations(0), 1);
        let snap = m.registry().snapshot();
        let burn = snap
            .families
            .iter()
            .find(|f| f.name == "serve_error_budget_burn")
            .and_then(|f| match f.children[0].value {
                lowbit_metrics::ChildValue::Gauge(v) => Some(v),
                _ => None,
            })
            .unwrap();
        assert!((burn - 10.0).abs() < 1e-9, "burn {burn}");
        assert!(m.total_percentile(0, 0.5) > 0.0);
    }

    #[test]
    fn rejections_are_counted_by_reason_with_wait_attribution() {
        let registry = Arc::new(Registry::new());
        let m = ServeMetrics::new(registry, &["a", "b"], 10.0);
        let shards = m.worker_shards();
        m.record_rejection(None, 0, RejectReason::QueueFull, 0.02);
        m.record_rejection(None, 0, RejectReason::QueueFull, 0.03);
        let t = timing([4.0, 1.0, 0.5, 0.0]);
        m.record_rejection(Some((&shards, &t)), 1, RejectReason::ExecError, 4.0);
        assert_eq!(m.rejected(0, RejectReason::QueueFull), 2);
        assert_eq!(m.rejected(1, RejectReason::ExecError), 1);
        assert_eq!(m.rejected(1, RejectReason::QueueFull), 0);
        // The exec-error rejection recorded its partial stages too.
        let snap = m.registry().snapshot();
        let fam = snap.families.iter().find(|f| f.name == "serve_queue_wait_ms").unwrap();
        let b_child = fam
            .children
            .iter()
            .find(|c| c.labels.iter().any(|(_, v)| v == "b"))
            .unwrap();
        match &b_child.value {
            lowbit_metrics::ChildValue::Hist(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn batches_refresh_the_cache_ratio_gauge() {
        let registry = Arc::new(Registry::new());
        let m = ServeMetrics::new(registry, &["demo"], 10.0);
        m.record_batch(&PlanCacheStats { hits: 3, misses: 1, entries: 1 });
        let snap = m.registry().snapshot();
        let ratio = snap
            .families
            .iter()
            .find(|f| f.name == "plan_cache_hit_ratio")
            .and_then(|f| match f.children[0].value {
                lowbit_metrics::ChildValue::Gauge(v) => Some(v),
                _ => None,
            })
            .unwrap();
        assert!((ratio - 0.75).abs() < 1e-12);
    }
}
