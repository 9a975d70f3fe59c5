//! Deterministic interleaving coverage for the serving batcher: the
//! threaded [`lowbit_serve::AdmissionQueue`] and the bare
//! [`lowbit_serve::Batcher`] it runs on the wall clock.
//!
//! The queue's concurrency tests elsewhere rely on sleeps and real thread
//! scheduling; this harness instead drives the batcher through *explicitly
//! enumerated* event sequences — every interleaving up to a bounded length,
//! plus long seeded-random schedules — and checks each step against a
//! reference model (a plain `VecDeque` + closed flag). Two harnesses:
//!
//! - **Queue**: push/close/drain on the threaded `AdmissionQueue`. Drains
//!   are only issued when the model proves they cannot block (items at
//!   target, queue closed, or an expired dynamic deadline over a non-empty
//!   queue), so the exploration stays single-threaded and exact. On the
//!   wall clock only a `deadline_ms: 0.0` deadline is provably expired.
//! - **Virtual clock**: push/close/tick/decide on a bare `Batcher`, whose
//!   clock is injected. Here dynamic deadlines run *unexpired*: every
//!   `decide` — wait until a deadline, wait for an arrival, close, drained —
//!   is checked against the model's restatement of the close rule, under a
//!   fixed target, a live 1 ms deadline, an infinite deadline, and with no
//!   request able to arrive.
//!
//! Invariants checked at every step and at the end of every schedule:
//! conservation (delivered + still-queued == admitted, nothing lost or
//! duplicated), FIFO delivery, typed backpressure (`QueueFull` at capacity,
//! `ServerShutdown` after close), partial-batch flush on close, and `None`
//! (or `Drained`) exactly when closed-and-empty.

use lowbit::CoreError;
use lowbit_serve::{AdmissionQueue, BatchPolicy, Batcher, Decision};
use std::collections::VecDeque;

/// One schedule event. Drain events carry the close rule they drain under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// Submit the next sequence number.
    Push,
    /// Close the queue.
    Close,
    /// `next_batch(Fixed(2))` — issued only when it provably cannot block.
    DrainFixed,
    /// `next_batch(Dynamic { max_batch: 2, deadline_ms: 0.0 })` — the
    /// deadline is already expired, so it returns as soon as the queue is
    /// non-empty (or `None`/skip otherwise).
    DrainDynamic,
}

const ALPHABET: [Event; 4] = [Event::Push, Event::Close, Event::DrainFixed, Event::DrainDynamic];

/// The reference model: the queue semantics restated in ~30 lines of
/// sequential code.
struct Model {
    cap: usize,
    items: VecDeque<u32>,
    closed: bool,
    admitted: u64,
    rejected: u64,
}

impl Model {
    fn new(cap: usize) -> Model {
        Model { cap, items: VecDeque::new(), closed: false, admitted: 0, rejected: 0 }
    }

    fn push(&mut self, item: u32) -> Result<(), CoreError> {
        if self.closed {
            return Err(CoreError::ServerShutdown);
        }
        if self.items.len() >= self.cap {
            self.rejected += 1;
            return Err(CoreError::QueueFull { capacity: self.cap });
        }
        self.items.push_back(item);
        self.admitted += 1;
        Ok(())
    }

    /// Whether `next_batch` with `target` items would return without
    /// blocking: a full batch is ready, or the queue is closed (partial
    /// flush / `None`), or an expired dynamic deadline with work queued.
    fn drain_ready(&self, target: usize, dynamic: bool) -> bool {
        self.items.len() >= target || self.closed || (dynamic && !self.items.is_empty())
    }

    fn next_batch(&mut self, target: usize) -> Option<Vec<u32>> {
        if self.items.is_empty() {
            assert!(self.closed, "harness bug: blocking drain issued");
            return None;
        }
        let b = self.items.len().min(target);
        Some(self.items.drain(..b).collect())
    }
}

/// Runs one schedule against queue and model in lockstep, asserting every
/// step agrees, then drains to exhaustion and checks conservation + FIFO.
fn run_schedule(events: &[Event], cap: usize) {
    let q: AdmissionQueue<u32> = AdmissionQueue::new(cap);
    let mut model = Model::new(cap);
    let mut next = 0u32;
    let mut delivered: Vec<u32> = Vec::new();
    let fixed = BatchPolicy::Fixed(2);
    let dynamic = BatchPolicy::Dynamic { max_batch: 2, deadline_ms: 0.0 };

    let step = |q: &AdmissionQueue<u32>,
                    model: &mut Model,
                    delivered: &mut Vec<u32>,
                    next: &mut u32,
                    e: Event| {
        match e {
            Event::Push => {
                let want = model.push(*next);
                let got = q.push(*next);
                assert_eq!(got, want, "push({next}) diverged in {events:?}");
                *next += 1;
            }
            Event::Close => {
                model.closed = true;
                q.close();
            }
            Event::DrainFixed | Event::DrainDynamic => {
                let dyn_rule = e == Event::DrainDynamic;
                // Skip drains the model cannot prove non-blocking: the
                // harness is single-threaded, so a blocking call would hang
                // the test rather than explore anything.
                if !model.drain_ready(2, dyn_rule) {
                    return;
                }
                let want = model.next_batch(2);
                let got = q.next_batch(if dyn_rule { &dynamic } else { &fixed });
                assert_eq!(got, want, "drain diverged in {events:?}");
                if let Some(batch) = got {
                    delivered.extend(batch);
                }
            }
        }
        let stats = q.stats();
        assert_eq!(stats.admitted, model.admitted, "admitted diverged in {events:?}");
        assert_eq!(stats.rejected, model.rejected, "rejected diverged in {events:?}");
        assert_eq!(stats.depth, model.items.len(), "depth diverged in {events:?}");
        assert_eq!(stats.capacity, cap);
    };

    for &e in events {
        step(&q, &mut model, &mut delivered, &mut next, e);
    }
    // Wind down: close, then drain until both sides agree on `None`.
    step(&q, &mut model, &mut delivered, &mut next, Event::Close);
    loop {
        let want = model.next_batch(2);
        let got = q.next_batch(&fixed);
        assert_eq!(got, want, "wind-down drain diverged in {events:?}");
        match got {
            Some(batch) => delivered.extend(batch),
            None => break,
        }
    }
    // Closed-and-empty stays `None`, and pushes stay rejected as shutdown.
    assert_eq!(q.next_batch(&dynamic), None);
    assert_eq!(q.push(u32::MAX), Err(CoreError::ServerShutdown));

    // Conservation + FIFO: every admitted request was delivered exactly
    // once, in admission order. (Sequence numbers are admitted in order and
    // rejected ones never enter, so delivery must be the admitted
    // subsequence of 0..next in order.)
    assert_eq!(delivered.len() as u64, model.admitted, "requests lost or duplicated");
    for w in delivered.windows(2) {
        assert!(w[0] < w[1], "FIFO order broken in {events:?}: {delivered:?}");
    }
}

/// Calls `f` on every schedule over `alphabet` of length `0..=max_len`,
/// returning how many there were.
fn for_each_schedule<E: Copy>(alphabet: &[E], max_len: u32, mut f: impl FnMut(&[E])) -> usize {
    let mut count = 0usize;
    for len in 0..=max_len as usize {
        let mut idx = vec![0usize; len];
        loop {
            let events: Vec<E> = idx.iter().map(|&i| alphabet[i]).collect();
            f(&events);
            count += 1;
            // Odometer increment over the alphabet.
            let mut pos = len;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < alphabet.len() {
                    break;
                }
                idx[pos] = 0;
            }
            if idx.iter().all(|&i| i == 0) {
                break;
            }
        }
    }
    assert_eq!(count, (0..=max_len).map(|l| alphabet.len().pow(l)).sum::<usize>());
    count
}

/// A fixed LCG, so every seeded schedule is reproducible from its seed.
fn lcg(seed: u64) -> impl FnMut() -> usize {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    }
}

/// Every schedule of length <= 6 over {push, close, drain-fixed,
/// drain-dynamic} at capacity 2 — 5461 schedules, each fully checked. The
/// small capacity forces `QueueFull` paths; early closes force
/// `ServerShutdown` and partial flushes.
#[test]
fn exhaustive_short_interleavings_match_the_model() {
    for_each_schedule(&ALPHABET, 6, |events| run_schedule(events, 2));
}

/// Long seeded schedules: 64 seeds x 200 events over a mix of capacities.
#[test]
fn seeded_long_interleavings_match_the_model() {
    for seed in 0u64..64 {
        let mut rng = lcg(seed);
        let cap = 1 + rng() % 4;
        let events: Vec<Event> = (0..200)
            .map(|_| {
                // Bias toward pushes and drains; rare closes end the
                // schedule's useful life early, which is itself a case
                // worth covering a few times per run set.
                match rng() % 16 {
                    0 => Event::Close,
                    1..=8 => Event::Push,
                    9..=12 => Event::DrainFixed,
                    _ => Event::DrainDynamic,
                }
            })
            .collect();
        run_schedule(&events, cap);
    }
}

/// One virtual-clock schedule event.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// Admit the next sequence number, stamped with the current time.
    Push,
    /// Close the batcher.
    Close,
    /// Advance the virtual clock by half a millisecond.
    Tick,
    /// `decide` under `rule`; `can_arrive == false` models a stream with
    /// nothing left to arrive (the sim's end of stream or stalled clients).
    Decide { rule: Rule, can_arrive: bool },
}

/// The policies the virtual-clock harness decides under.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rule {
    /// `Fixed(2)`: no deadline.
    Fixed,
    /// `Dynamic { max_batch: 3, deadline_ms: 1.0 }`: two ticks to expire.
    Live,
    /// `Dynamic { max_batch: 40, deadline_ms: inf }`: the target caps at
    /// the largest bucket (32) and the deadline never lands, so it waits
    /// like `Fixed`.
    Endless,
}

impl Rule {
    fn policy(self) -> BatchPolicy {
        match self {
            Rule::Fixed => BatchPolicy::Fixed(2),
            Rule::Live => BatchPolicy::Dynamic { max_batch: 3, deadline_ms: 1.0 },
            Rule::Endless => BatchPolicy::Dynamic { max_batch: 40, deadline_ms: f64::INFINITY },
        }
    }

    /// `(batch target, deadline in ms)` as the close rule reads them.
    fn terms(self) -> (usize, Option<f64>) {
        match self {
            Rule::Fixed => (2, None),
            Rule::Live => (3, Some(1.0)),
            Rule::Endless => (32, None),
        }
    }
}

const STEPS: [Step; 8] = [
    Step::Push,
    Step::Close,
    Step::Tick,
    Step::Decide { rule: Rule::Fixed, can_arrive: true },
    Step::Decide { rule: Rule::Fixed, can_arrive: false },
    Step::Decide { rule: Rule::Live, can_arrive: true },
    Step::Decide { rule: Rule::Live, can_arrive: false },
    Step::Decide { rule: Rule::Endless, can_arrive: true },
];

/// The reference close rule, restated over a stamped `VecDeque`.
struct ClockModel {
    queue: Model,
    stamps: VecDeque<f64>,
}

impl ClockModel {
    fn push(&mut self, item: u32, now: f64) -> Result<(), CoreError> {
        self.queue.push(item)?;
        self.stamps.push_back(now);
        Ok(())
    }

    fn decide(&self, rule: Rule, now: f64, can_arrive: bool) -> Decision {
        let (target, deadline) = rule.terms();
        let queued = self.queue.items.len();
        let open = can_arrive && !self.queue.closed;
        if queued == 0 {
            return if open { Decision::WaitForArrival } else { Decision::Drained };
        }
        if queued >= target {
            return Decision::Close(target);
        }
        if self.queue.closed {
            return Decision::Close(queued);
        }
        match deadline.map(|d| self.stamps[0] + d) {
            Some(t) if now >= t => Decision::Close(queued),
            Some(t) => Decision::WaitUntil(t),
            None if open => Decision::WaitForArrival,
            None => Decision::Close(queued),
        }
    }

    fn take(&mut self, n: usize) -> Vec<u32> {
        self.stamps.drain(..n);
        self.queue.items.drain(..n).collect()
    }
}

/// A bare `Batcher` and the model in lockstep on one virtual clock.
struct ClockRun {
    batcher: Batcher<u32>,
    model: ClockModel,
    now: f64,
    next: u32,
    delivered: Vec<u32>,
    /// `WaitUntil` decisions seen: batches waiting on a live deadline.
    unexpired_waits: usize,
}

impl ClockRun {
    fn step(&mut self, s: Step, steps: &[Step]) {
        let now = self.now;
        match s {
            Step::Push => {
                let want = self.model.push(self.next, now);
                assert_eq!(self.batcher.push(self.next, now), want, "push in {steps:?}");
                self.next += 1;
            }
            Step::Close => {
                self.batcher.close();
                self.model.queue.closed = true;
            }
            Step::Tick => self.now += 0.5,
            Step::Decide { rule, can_arrive } => {
                let got = self.batcher.decide(&rule.policy(), now, can_arrive);
                assert_eq!(got, self.model.decide(rule, now, can_arrive), "at {now} in {steps:?}");
                match got {
                    Decision::Close(n) => {
                        let batch = self.batcher.take(n);
                        assert_eq!(batch, self.model.take(n), "drain diverged in {steps:?}");
                        self.delivered.extend(batch);
                    }
                    Decision::WaitUntil(t) => {
                        assert!(t > now, "a wait must end in the future");
                        self.unexpired_waits += 1;
                    }
                    Decision::WaitForArrival | Decision::Drained => {}
                }
            }
        }
        let (stats, queue) = (self.batcher.stats(), &self.model.queue);
        assert_eq!(stats.admitted, queue.admitted, "admitted diverged in {steps:?}");
        assert_eq!(stats.rejected, queue.rejected, "rejected diverged in {steps:?}");
        assert_eq!(stats.depth, queue.items.len(), "depth diverged in {steps:?}");
    }
}

/// Runs one schedule on a virtual clock, then closes and decides to
/// exhaustion; returns the number of unexpired-deadline waits it saw.
fn run_clock_schedule(steps: &[Step], cap: usize) -> usize {
    let mut run = ClockRun {
        batcher: Batcher::new(cap),
        model: ClockModel { queue: Model::new(cap), stamps: VecDeque::new() },
        now: 0.0,
        next: 0,
        delivered: Vec::new(),
        unexpired_waits: 0,
    };
    for &s in steps {
        run.step(s, steps);
    }
    run.step(Step::Close, steps);
    // A closed batcher flushes under every rule, then stays drained.
    for rule in [Rule::Endless, Rule::Live, Rule::Fixed] {
        while run.batcher.decide(&rule.policy(), run.now, true) != Decision::Drained {
            run.step(Step::Decide { rule, can_arrive: true }, steps);
        }
    }
    assert_eq!(run.batcher.push(u32::MAX, run.now), Err(CoreError::ServerShutdown));
    let delivered = &run.delivered;
    assert_eq!(delivered.len() as u64, run.model.queue.admitted, "requests lost or duplicated");
    for w in delivered.windows(2) {
        assert!(w[0] < w[1], "FIFO order broken in {steps:?}: {delivered:?}");
    }
    run.unexpired_waits
}

/// Every virtual-clock schedule of length <= 6 at capacity 3, so the live
/// deadline's target of 3 can fill as well as expire.
#[test]
fn exhaustive_virtual_clock_schedules_match_the_close_rule() {
    let mut unexpired_waits = 0;
    for_each_schedule(&STEPS, 6, |steps| unexpired_waits += run_clock_schedule(steps, 3));
    assert!(unexpired_waits > 0, "no schedule reached a live deadline");
}

/// Long seeded virtual-clock schedules over a mix of capacities; together
/// they must reach live deadlines as well as expired ones and full batches.
#[test]
fn seeded_virtual_clock_schedules_match_the_close_rule() {
    let mut unexpired_waits = 0;
    for seed in 0u64..64 {
        let mut rng = lcg(seed);
        let cap = 1 + rng() % 4;
        let steps: Vec<Step> = (0..200)
            .map(|_| match rng() % 64 {
                0 => Step::Close,
                1..=24 => Step::Push,
                25..=36 => Step::Tick,
                r => STEPS[3 + r % 5],
            })
            .collect();
        unexpired_waits += run_clock_schedule(&steps, cap);
    }
    assert!(unexpired_waits > 0, "no schedule reached a live deadline");
}
