//! Executor-side production metrics: per-(shape, bits, backend) latency
//! histograms and the cost-model drift feed.
//!
//! [`ExecMetrics`] is the bridge between the executor and `lowbit-metrics`:
//! every planned layer the executor runs records its *predicted* millis
//! (the plan's `predicted_millis`, i.e. the backend cost model) and its
//! *observed* millis (what the backend actually reported) under a typed
//! [`ExecKey`]. Histograms land in a shared [`Registry`] for exposition;
//! ratios feed a [`DriftTracker`] whose [`audit`](ExecMetrics::audit)
//! answers "is the cost model still right on this shape?" — the warm-start
//! signal ROADMAP item 5's tuning database consumes.

use crate::plan::{BackendKind, LayerPlan};
use lowbit_metrics::drift::{DriftBand, DriftReport, DriftTracker};
use lowbit_metrics::{HistShard, HistSpec, Registry};
use lowbit_tensor::ConvShape;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The drift-audit key: one cost-model row. Ordered by shape (field by
/// field), then bits, then backend, as drift reports list their rows.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ExecKey {
    /// Convolution geometry.
    pub shape: ConvShape,
    /// Operand bit width (raw bits, 2..=8).
    pub bits: u8,
    /// Which engine ran it.
    pub backend: BackendKind,
}

impl ExecKey {
    /// The key for one planned layer.
    pub fn of(plan: &LayerPlan) -> ExecKey {
        ExecKey { shape: plan.shape, bits: plan.bits.bits(), backend: plan.algo.backend() }
    }
}

impl fmt::Display for ExecKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} w{} {}]", self.shape, self.bits, self.backend)
    }
}

struct KeyShards {
    observed: HistShard,
    predicted: HistShard,
}

/// Per-layer execution metrics shared by every [`Executor`] clone holding
/// the same handle (the executor is cloned per serve worker).
///
/// [`Executor`]: crate::executor::Executor
pub struct ExecMetrics {
    registry: Arc<Registry>,
    drift: DriftTracker<ExecKey>,
    shards: Mutex<HashMap<ExecKey, KeyShards>>,
}

impl fmt::Debug for ExecMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ExecMetrics")
    }
}

impl ExecMetrics {
    /// Metrics recording into `registry`.
    pub fn new(registry: Arc<Registry>) -> Arc<ExecMetrics> {
        Arc::new(ExecMetrics {
            registry,
            drift: DriftTracker::new(),
            shards: Mutex::new(HashMap::new()),
        })
    }

    /// The registry histograms land in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one executed layer: `predicted` is the plan's modeled millis,
    /// `observed` what the backend reported. First sight of a key registers
    /// its histograms; steady-state recording only locks the key's own
    /// shards.
    pub fn record_layer(&self, key: ExecKey, predicted: f64, observed: f64) {
        self.drift.record(key, predicted, observed);
        let mut shards = self.shards.lock().expect("exec metrics poisoned");
        let entry = shards.entry(key).or_insert_with(|| {
            let labels = [
                ("shape", format!("{}", key.shape)),
                ("bits", format!("{}", key.bits)),
                ("backend", format!("{}", key.backend)),
            ];
            let labels: Vec<(&str, &str)> =
                labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            KeyShards {
                observed: self
                    .registry
                    .histogram(
                        "exec_layer_observed_ms",
                        "Backend-reported modeled milliseconds per executed layer",
                        &labels,
                        HistSpec::latency_ms(),
                    )
                    .shard(),
                predicted: self
                    .registry
                    .histogram(
                        "exec_layer_predicted_ms",
                        "Plan-predicted milliseconds per executed layer",
                        &labels,
                        HistSpec::latency_ms(),
                    )
                    .shard(),
            }
        });
        entry.observed.record(observed);
        entry.predicted.record(predicted);
    }

    /// Audits every recorded key against `band`.
    pub fn audit(&self, band: DriftBand) -> DriftReport<ExecKey> {
        self.drift.audit(band)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_tensor::ConvShape;

    fn key(c_in: usize, bits: u8, backend: BackendKind) -> ExecKey {
        ExecKey { shape: ConvShape::new(1, c_in, 8, 8, 4, 3, 1, 1), bits, backend }
    }

    #[test]
    fn keys_order_by_shape_then_bits_then_backend() {
        let mut keys = [
            key(3, 4, BackendKind::GpuModel),
            key(3, 4, BackendKind::Arm),
            key(3, 2, BackendKind::Arm),
            key(1, 8, BackendKind::Arm),
        ];
        keys.sort();
        assert_eq!(keys[0], key(1, 8, BackendKind::Arm));
        assert_eq!(keys[1], key(3, 2, BackendKind::Arm));
        assert_eq!(keys[2], key(3, 4, BackendKind::Arm));
        assert_eq!(keys[3], key(3, 4, BackendKind::GpuModel));
    }

    #[test]
    fn record_layer_feeds_histograms_and_drift() {
        let registry = Arc::new(Registry::new());
        let m = ExecMetrics::new(registry.clone());
        let k = key(3, 4, BackendKind::Arm);
        for _ in 0..4 {
            m.record_layer(k, 2.0, 2.0);
        }
        let report = m.audit(DriftBand::default());
        assert!(report.clean());
        assert_eq!(report.keys.len(), 1);
        let snap = registry.snapshot();
        let fam = snap
            .families
            .iter()
            .find(|f| f.name == "exec_layer_observed_ms")
            .expect("observed histogram registered");
        assert_eq!(fam.children.len(), 1);
        match &fam.children[0].value {
            lowbit_metrics::ChildValue::Hist(h) => assert_eq!(h.count, 4),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
