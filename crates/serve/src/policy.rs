//! Batch-closing policies: a batch target and an optional deadline, applied
//! by the one close rule, [`crate::queue::Batcher::decide`].

use crate::cost::BATCH_BUCKETS;

/// When the batcher closes a batch.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum BatchPolicy {
    /// Close only when `n` requests are waiting (a partial batch is flushed
    /// at shutdown). `Fixed(1)` is the no-batching baseline.
    Fixed(usize),
    /// Close when `max_batch` requests are waiting **or** `deadline_ms` has
    /// elapsed since the oldest waiting request was admitted, whichever comes
    /// first — the latency-bounded policy real-time serving needs.
    Dynamic {
        /// Upper bound on batch size.
        max_batch: usize,
        /// Maximum formation wait in milliseconds.
        deadline_ms: f64,
    },
}

impl BatchPolicy {
    /// The most requests a batch may carry: at least 1 and at most the
    /// largest batch bucket, so every batch fits a bucket's plan.
    pub fn max_batch(&self) -> usize {
        let n = match *self {
            BatchPolicy::Fixed(n) => n,
            BatchPolicy::Dynamic { max_batch, .. } => max_batch,
        };
        n.clamp(1, BATCH_BUCKETS[BATCH_BUCKETS.len() - 1])
    }

    /// Stable label used by reports (`fixed-1`, `fixed-8`,
    /// `dynamic-16@2ms`).
    pub fn label(&self) -> String {
        match *self {
            BatchPolicy::Fixed(n) => format!("fixed-{}", n.max(1)),
            BatchPolicy::Dynamic { max_batch, deadline_ms } => {
                format!("dynamic-{}@{}ms", max_batch.max(1), deadline_ms)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_bounds() {
        assert_eq!(BatchPolicy::Fixed(1).label(), "fixed-1");
        assert_eq!(BatchPolicy::Fixed(0).max_batch(), 1);
        let d = BatchPolicy::Dynamic { max_batch: 16, deadline_ms: 2.0 };
        assert_eq!(d.label(), "dynamic-16@2ms");
        assert_eq!(d.max_batch(), 16);
        // The target is capped at the largest bucket; the label is not.
        assert_eq!(BatchPolicy::Fixed(40).max_batch(), 32);
        assert_eq!(BatchPolicy::Fixed(40).label(), "fixed-40");
    }
}
