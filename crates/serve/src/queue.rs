//! The one batching rule, and the threaded queue that runs it.
//!
//! [`Batcher`] is pure and clock-injected (times are milliseconds passed in
//! by the caller): the server runs it on the wall clock in
//! [`AdmissionQueue`], the serving sim ([`crate::sim`]) on virtual time. It
//! owns bounded admission with typed backpressure ([`CoreError::QueueFull`],
//! [`CoreError::ServerShutdown`]), the close decision ([`Batcher::decide`])
//! and the drain ([`Batcher::take`]). A `Dynamic` deadline starts at the
//! admission of the oldest queued request.

use crate::policy::BatchPolicy;
use lowbit::CoreError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission counters and current occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests rejected with `QueueFull`.
    pub rejected: u64,
    /// Requests currently waiting.
    pub depth: usize,
    /// Configured depth bound.
    pub capacity: usize,
}

/// What the batcher does next, as [`Batcher::decide`] rules it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// Close a batch of this many requests now.
    Close(usize),
    /// Wait until this time (milliseconds) or the next arrival, whichever
    /// comes first, then decide again.
    WaitUntil(f64),
    /// Wait, with no timeout, for the next arrival.
    WaitForArrival,
    /// Nothing is queued and nothing can arrive: no batch will close.
    Drained,
}

/// Bounded admission, the close decision and the drain, on an injected
/// clock. Items leave in admission order.
pub struct Batcher<T> {
    /// `(admission stamp in ms, item)`, oldest first.
    items: VecDeque<(f64, T)>,
    closed: bool,
    /// Counters and capacity; the depth is read off `items`.
    counts: QueueStats,
}

impl<T> Batcher<T> {
    /// Creates a batcher holding at most `capacity` requests (min 1).
    pub fn new(capacity: usize) -> Batcher<T> {
        let counts = QueueStats { capacity: capacity.max(1), ..QueueStats::default() };
        Batcher { items: VecDeque::new(), closed: false, counts }
    }

    /// Admits `item` stamped `now_ms`: `QueueFull` at capacity,
    /// `ServerShutdown` after [`Batcher::close`].
    pub fn push(&mut self, item: T, now_ms: f64) -> Result<(), CoreError> {
        if self.closed {
            return Err(CoreError::ServerShutdown);
        }
        if self.items.len() >= self.counts.capacity {
            self.counts.rejected += 1;
            return Err(CoreError::QueueFull { capacity: self.counts.capacity });
        }
        self.items.push_back((now_ms, item));
        self.counts.admitted += 1;
        Ok(())
    }

    /// Stops admission; what is queued still drains, partial batches
    /// included.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// The close rule at time `now_ms` under `policy`. A batch closes at
    /// once when the policy's target is queued or the batcher is closed (a
    /// partial batch flushes). Otherwise a `Dynamic` batch closes at its
    /// deadline (a negative or NaN `deadline_ms` counts as 0); `Fixed`, or a
    /// deadline that lands on no finite time, waits for arrivals with no
    /// timeout. `can_arrive` says whether a request can still arrive; when
    /// none can, such a wait would never end, so the batch flushes instead.
    pub fn decide(&self, policy: &BatchPolicy, now_ms: f64, can_arrive: bool) -> Decision {
        let can_arrive = can_arrive && !self.closed;
        let Some(&(oldest, _)) = self.items.front() else {
            return if can_arrive { Decision::WaitForArrival } else { Decision::Drained };
        };
        let (queued, target) = (self.items.len(), policy.max_batch());
        if queued >= target {
            return Decision::Close(target);
        }
        let deadline = match *policy {
            BatchPolicy::Fixed(_) => None,
            BatchPolicy::Dynamic { deadline_ms, .. } => Some(oldest + deadline_ms.max(0.0)),
        };
        match deadline.filter(|t| t.is_finite()) {
            _ if self.closed => Decision::Close(queued),
            Some(t) if now_ms >= t => Decision::Close(queued),
            Some(t) => Decision::WaitUntil(t),
            None if can_arrive => Decision::WaitForArrival,
            None => Decision::Close(queued),
        }
    }

    /// Removes and returns the `n` oldest items (fewer if fewer are queued).
    pub fn take(&mut self, n: usize) -> Vec<T> {
        let n = n.min(self.items.len());
        self.items.drain(..n).map(|(_, item)| item).collect()
    }

    /// Admission counters and occupancy.
    pub fn stats(&self) -> QueueStats {
        QueueStats { depth: self.items.len(), ..self.counts }
    }
}

/// A bounded MPSC queue — many submitters, one batcher thread — running
/// [`Batcher`] on the wall clock. `push` never blocks; `next_batch` blocks on
/// a condvar for as long as the rule says to wait.
pub struct AdmissionQueue<T> {
    origin: Instant,
    inner: Mutex<Batcher<T>>,
    cv: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue holding at most `capacity` requests (min 1).
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            origin: Instant::now(),
            inner: Mutex::new(Batcher::new(capacity)),
            cv: Condvar::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Non-blocking admission: `QueueFull` at capacity, `ServerShutdown`
    /// after [`AdmissionQueue::close`].
    pub fn push(&self, item: T) -> Result<(), CoreError> {
        self.inner.lock().expect("queue poisoned").push(item, self.now_ms())?;
        self.cv.notify_all();
        Ok(())
    }

    /// Closes the queue: subsequent pushes fail, the batcher drains what is
    /// left (flushing partial batches) and then sees `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").close();
        self.cv.notify_all();
    }

    /// Blocks until a batch closes per `policy`; `None` once the queue is
    /// closed **and** empty.
    pub fn next_batch(&self, policy: &BatchPolicy) -> Option<Vec<T>> {
        let mut g = self.inner.lock().expect("queue poisoned");
        loop {
            let now = self.now_ms();
            let timeout = match g.decide(policy, now, true) {
                Decision::Close(n) => return Some(g.take(n)),
                Decision::Drained => return None,
                // A wait too long for a `Duration` waits for an arrival.
                Decision::WaitUntil(t) => Duration::try_from_secs_f64((t - now) / 1e3).ok(),
                Decision::WaitForArrival => None,
            };
            g = match timeout {
                Some(d) => self.cv.wait_timeout(g, d).expect("queue poisoned").0,
                None => self.cv.wait(g).expect("queue poisoned"),
            };
        }
    }

    /// Admission counters and occupancy.
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().expect("queue poisoned").stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_rejects_with_typed_backpressure() {
        let q = AdmissionQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(CoreError::QueueFull { capacity: 2 }));
        let stats = q.stats();
        assert_eq!((stats.admitted, stats.rejected, stats.depth), (2, 1, 2));
        q.close();
        assert_eq!(q.push(4), Err(CoreError::ServerShutdown));
    }

    #[test]
    fn fixed_batches_close_at_exactly_n_and_flush_on_close() {
        let q = Arc::new(AdmissionQueue::new(16));
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let policy = BatchPolicy::Fixed(4);
        assert_eq!(q.next_batch(&policy), Some(vec![0, 1, 2, 3]));
        // One item left: a Fixed(4) batch waits — close flushes it partial.
        let qc = q.clone();
        let h = std::thread::spawn(move || qc.next_batch(&BatchPolicy::Fixed(4)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Some(vec![4]));
        assert_eq!(q.next_batch(&policy), None);
    }

    #[test]
    fn dynamic_batches_close_on_the_deadline() {
        let q = AdmissionQueue::new(16);
        q.push(7).unwrap();
        let t0 = Instant::now();
        let batch = q.next_batch(&BatchPolicy::Dynamic { max_batch: 8, deadline_ms: 10.0 });
        assert_eq!(batch, Some(vec![7]));
        assert!(t0.elapsed() >= Duration::from_millis(9), "waited out the deadline");
        // A full batch closes immediately.
        for i in 0..8 {
            q.push(i).unwrap();
        }
        let t0 = Instant::now();
        let batch = q.next_batch(&BatchPolicy::Dynamic { max_batch: 8, deadline_ms: 500.0 });
        assert_eq!(batch.map(|b| b.len()), Some(8));
        assert!(t0.elapsed() < Duration::from_millis(400), "did not wait for the deadline");
    }

    #[test]
    fn the_deadline_starts_at_the_oldest_admission() {
        let q = AdmissionQueue::new(16);
        q.push(1).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        // The oldest request has already waited out a 50 ms deadline, so
        // the batcher closes at once rather than starting a fresh one.
        let t0 = Instant::now();
        let batch = q.next_batch(&BatchPolicy::Dynamic { max_batch: 8, deadline_ms: 50.0 });
        assert_eq!(batch, Some(vec![1]));
        assert!(t0.elapsed() < Duration::from_millis(40), "restarted the deadline");
    }

    #[test]
    fn infinite_and_huge_deadlines_wait_like_fixed_and_flush_on_close() {
        for deadline_ms in [f64::INFINITY, 1e300] {
            let q = Arc::new(AdmissionQueue::new(16));
            let policy = BatchPolicy::Dynamic { max_batch: 4, deadline_ms };
            for i in 0..5 {
                q.push(i).unwrap();
            }
            assert_eq!(q.next_batch(&policy), Some(vec![0, 1, 2, 3]));
            let qc = q.clone();
            let h = std::thread::spawn(move || qc.next_batch(&policy));
            std::thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(h.join().expect("batcher survives"), Some(vec![4]));
            assert_eq!(q.next_batch(&policy), None);
        }
    }

    #[test]
    fn decisions_on_a_virtual_clock() {
        let dynamic = BatchPolicy::Dynamic { max_batch: 3, deadline_ms: 2.0 };
        let mut b = Batcher::new(8);
        assert_eq!(b.decide(&dynamic, 0.0, true), Decision::WaitForArrival);
        assert_eq!(b.decide(&dynamic, 0.0, false), Decision::Drained);
        b.push('a', 1.0).unwrap();
        b.push('b', 1.5).unwrap();
        assert_eq!(b.decide(&dynamic, 1.5, true), Decision::WaitUntil(3.0));
        assert_eq!(b.decide(&dynamic, 3.0, true), Decision::Close(2));
        let fixed = BatchPolicy::Fixed(3);
        assert_eq!(b.decide(&fixed, 9.0, true), Decision::WaitForArrival);
        assert_eq!(b.decide(&fixed, 9.0, false), Decision::Close(2));
        assert_eq!(b.take(2), vec!['a', 'b']);
        b.push('c', 4.0).unwrap();
        b.close();
        assert_eq!(b.decide(&dynamic, 4.0, true), Decision::Close(1));
        assert_eq!(b.take(5), vec!['c']);
        assert_eq!(b.decide(&dynamic, 4.0, true), Decision::Drained);
    }
}
