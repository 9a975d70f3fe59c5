//! **lowbit-trace** — kernel-level tracing and metrics for the lowbit engines.
//!
//! The paper's own tuning methodology is observational (profile runs pick the
//! GPU tiling, Sec. 4.5; the ARM kernel design rests on pipe-occupancy
//! arguments, Sec. 3.3), so the execution stack records *why* a kernel is
//! bound where it is, not just how long it took. This crate is the recording
//! substrate:
//!
//! * [`Tracer`] — the handle threaded through the engines. A null tracer
//!   ([`Tracer::null`]) is allocation-free and compiles every recording call
//!   to a branch on [`Tracer::enabled`]; a recording tracer
//!   ([`Tracer::recording`]) captures spans and counters behind a mutex.
//! * [`TraceSink`] — the pluggable capture API ([`NullSink`],
//!   [`RecordingSink`], or anything downstream that wants live streaming).
//! * Spans carry **wall-clock** time (from the real execution) and, for
//!   modeled stages, a [`PipeAttribution`]: NEON-pipe issue slots, LS-pipe
//!   issue slots, streaming-stall bytes and the instruction-class histogram
//!   that `neon_sim::cost` prices. The conservation invariant — the sum of a
//!   kernel's stage attributions reproduces its `estimate_millis` — is
//!   enforced by the workspace integration tests.
//! * Exporters: Chrome/Perfetto trace-event JSON ([`chrome`]), a
//!   flamegraph-style text profile ([`flame`]) and a machine-readable
//!   summary ([`summary`]) wired into the benchmark export path.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod flame;
pub mod json;
pub mod summary;

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The track every top-level engine span records onto when no dedicated
/// track was registered (track 0, named "main" by [`RecordingSink`]).
pub const MAIN_TRACK: u32 = 0;

/// Modeled pipe attribution of one kernel stage, in the units of
/// `neon_sim::cost`: issue slots (cycles) per pipe, streaming-stall bytes,
/// and the instruction-class histogram the cost model prices.
///
/// `modeled_cycles` is the stage's combined dual-issue cost (the exact value
/// `StageCost::cycles` feeds into `estimate_millis`), so summing children
/// and converting with the engine's clock reproduces the engine's estimate —
/// the conservation invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipeAttribution {
    /// NEON-pipe issue-slot cycles (`neon_total x neon_slots`).
    pub neon_slot_cycles: f64,
    /// Load/store-pipe issue-slot cycles (`mem_total x ls_slots`), excluding
    /// the per-byte stall term.
    pub ls_slot_cycles: f64,
    /// Bytes subject to the streaming-stall (or bulk-move) charge.
    pub stall_bytes: u64,
    /// Load instructions (`InstClass::Load`).
    pub loads: u64,
    /// Store instructions (`InstClass::Store`).
    pub stores: u64,
    /// Multiply-accumulate vector instructions (`InstClass::NeonMac`).
    pub neon_mac: u64,
    /// Other vector ALU instructions (`InstClass::NeonAlu`).
    pub neon_alu: u64,
    /// Move instructions (`InstClass::NeonMov`).
    pub neon_mov: u64,
    /// Combined modeled cycles of the stage under its cost model.
    pub modeled_cycles: f64,
}

impl PipeAttribution {
    /// Adds `other` into `self` field-wise.
    pub fn accumulate(&mut self, other: &PipeAttribution) {
        self.neon_slot_cycles += other.neon_slot_cycles;
        self.ls_slot_cycles += other.ls_slot_cycles;
        self.stall_bytes += other.stall_bytes;
        self.loads += other.loads;
        self.stores += other.stores;
        self.neon_mac += other.neon_mac;
        self.neon_alu += other.neon_alu;
        self.neon_mov += other.neon_mov;
        self.modeled_cycles += other.modeled_cycles;
    }

    /// Total instructions in the histogram.
    pub fn total_insts(&self) -> u64 {
        self.loads + self.stores + self.neon_mac + self.neon_alu + self.neon_mov
    }
}

/// Whether a span measures real execution or a modeled schedule stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// Wall-clock measurement of executed code.
    Wall,
    /// Modeled stage laid out on a synthetic timeline.
    Modeled,
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name (stage or phase; aggregation key of the exporters).
    pub name: String,
    /// Wall vs modeled timeline.
    pub kind: SpanKind,
    /// Track (thread/timeline) the span belongs to.
    pub track: u32,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Free-form context (layer name, algorithm, column span, ...).
    pub label: Option<String>,
    /// Modeled pipe attribution, when the span is a costed stage.
    pub attr: Option<PipeAttribution>,
}

impl SpanRecord {
    /// One past the end, nanoseconds since origin.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// One recorded counter sample (time series keyed by name).
#[derive(Clone, Debug, PartialEq)]
pub struct CounterRecord {
    /// Series name.
    pub name: String,
    /// Sample time, nanoseconds since the tracer's origin.
    pub ts_ns: u64,
    /// Sample value.
    pub value: f64,
}

/// Everything a recording run captured.
#[derive(Clone, Debug)]
pub struct TraceCapture {
    /// Track names; the index is the track id spans refer to.
    pub tracks: Vec<String>,
    /// All spans, in submission (i.e. end-time) order.
    pub spans: Vec<SpanRecord>,
    /// All counter samples, in submission order.
    pub counters: Vec<CounterRecord>,
    /// Spans discarded after the sink's span buffer filled
    /// (`trace_spans_dropped_total` in the summary exposition).
    pub spans_dropped: u64,
}

impl Default for TraceCapture {
    fn default() -> TraceCapture {
        TraceCapture {
            tracks: vec!["main".to_string()],
            spans: Vec::new(),
            counters: Vec::new(),
            spans_dropped: 0,
        }
    }
}

impl TraceCapture {
    /// Track id of a track named exactly `name`, if registered.
    pub fn track_id(&self, name: &str) -> Option<u32> {
        self.tracks.iter().position(|t| t == name).map(|i| i as u32)
    }

    /// All spans on one track, in submission order.
    pub fn spans_on(&self, track: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.track == track)
    }
}

/// The pluggable capture API. Implementations must be callable from the
/// scoped worker threads of the parallel GEMM driver.
pub trait TraceSink: Send + Sync {
    /// Fast-path gate: when `false`, callers skip building labels and
    /// attribution entirely, and no recording call allocates.
    fn enabled(&self) -> bool;
    /// Accepts one finished span.
    fn span(&self, record: SpanRecord);
    /// Accepts one counter sample.
    fn counter(&self, record: CounterRecord);
    /// Registers a named track and returns its id.
    fn register_track(&self, name: String) -> u32;
}

/// The disabled sink: every method is a no-op and [`TraceSink::enabled`]
/// reports `false`, so instrumented code paths cost one branch.
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn span(&self, _record: SpanRecord) {}
    fn counter(&self, _record: CounterRecord) {}
    fn register_track(&self, _name: String) -> u32 {
        MAIN_TRACK
    }
}

/// Default bound on [`RecordingSink`]'s span buffer. Generous for any real
/// run (a full serving sim records a few thousand spans), but finite, so a
/// long-running traced process can't grow the buffer without limit.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

/// In-memory capture sink with a bounded span buffer: once `capacity` spans
/// are held, further spans are counted (never stored) in
/// [`TraceCapture::spans_dropped`]. Counter samples and track registrations
/// are not bounded — they are few and fixed-size per series.
pub struct RecordingSink {
    state: Mutex<TraceCapture>,
    capacity: usize,
}

impl Default for RecordingSink {
    fn default() -> RecordingSink {
        RecordingSink::new()
    }
}

impl RecordingSink {
    /// A fresh sink with only the "main" track registered and the
    /// [`DEFAULT_SPAN_CAPACITY`] span bound.
    pub fn new() -> RecordingSink {
        RecordingSink::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A sink that holds at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> RecordingSink {
        RecordingSink { state: Mutex::new(TraceCapture::default()), capacity }
    }

    /// Snapshot of everything recorded so far.
    pub fn capture(&self) -> TraceCapture {
        self.state.lock().expect("trace sink poisoned").clone()
    }

    /// Spans discarded because the buffer was full.
    pub fn spans_dropped(&self) -> u64 {
        self.state.lock().expect("trace sink poisoned").spans_dropped
    }
}

impl TraceSink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }
    fn span(&self, record: SpanRecord) {
        let mut st = self.state.lock().expect("trace sink poisoned");
        if st.spans.len() < self.capacity {
            st.spans.push(record);
        } else {
            st.spans_dropped += 1;
        }
    }
    fn counter(&self, record: CounterRecord) {
        self.state.lock().expect("trace sink poisoned").counters.push(record);
    }
    fn register_track(&self, name: String) -> u32 {
        let mut st = self.state.lock().expect("trace sink poisoned");
        st.tracks.push(name);
        (st.tracks.len() - 1) as u32
    }
}

struct Shared {
    sink: Arc<dyn TraceSink>,
    origin: Instant,
}

/// The recorder handle threaded through the execution stack. Cloning is
/// cheap (an `Arc`); the null tracer clones without touching the heap.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.enabled()).finish()
    }
}

impl Tracer {
    /// The disabled tracer: allocation-free to create, clone and use.
    pub fn null() -> Tracer {
        Tracer { shared: None }
    }

    /// A recording tracer plus the sink handle to capture from afterwards.
    pub fn recording() -> (Tracer, Arc<RecordingSink>) {
        let sink = Arc::new(RecordingSink::new());
        (Tracer::with_sink(sink.clone()), sink)
    }

    /// A tracer over a custom sink (the pluggable API).
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer { shared: Some(Arc::new(Shared { sink, origin: Instant::now() })) }
    }

    /// Whether recording calls will be kept. Callers use this to skip
    /// building labels/attribution (and any allocation) when tracing is off.
    pub fn enabled(&self) -> bool {
        self.shared.as_ref().is_some_and(|s| s.sink.enabled())
    }

    /// Nanoseconds since the tracer's origin (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.shared {
            Some(s) if s.sink.enabled() => s.origin.elapsed().as_nanos() as u64,
            _ => 0,
        }
    }

    /// Registers a named track (timeline); returns [`MAIN_TRACK`] when
    /// disabled.
    pub fn track(&self, name: &str) -> u32 {
        match &self.shared {
            Some(s) if s.sink.enabled() => s.sink.register_track(name.to_string()),
            _ => MAIN_TRACK,
        }
    }

    /// Opens a wall-clock span on `track`; the span is submitted when the
    /// returned guard drops. Inert (no clock read, no allocation) when
    /// disabled.
    pub fn span(&self, name: &'static str, track: u32) -> SpanGuard<'_> {
        let start = if self.enabled() { Some(Instant::now()) } else { None };
        SpanGuard { tracer: self, name, track, start, label: None, attr: None }
    }

    /// Records one sample of the counter series `name`.
    pub fn counter(&self, name: &str, value: f64) {
        if let Some(s) = &self.shared {
            if s.sink.enabled() {
                let ts_ns = s.origin.elapsed().as_nanos() as u64;
                s.sink.counter(CounterRecord { name: name.to_string(), ts_ns, value });
            }
        }
    }

    /// Records a modeled-stage span at explicit synthetic coordinates.
    pub fn modeled_span(
        &self,
        track: u32,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
        label: Option<String>,
        attr: Option<PipeAttribution>,
    ) {
        if let Some(s) = &self.shared {
            if s.sink.enabled() {
                s.sink.span(SpanRecord {
                    name: name.to_string(),
                    kind: SpanKind::Modeled,
                    track,
                    start_ns,
                    dur_ns,
                    label,
                    attr,
                });
            }
        }
    }

    /// Lays named modeled stages back to back on `track` from time 0, under
    /// one `parent` span labelled `label` that covers them all. Each stage
    /// lasts its modeled seconds rounded to whole nanoseconds (at least 1),
    /// so the parent's duration is exactly the sum of its children's. Only
    /// the stages carry an attribution, so summing attributions over the
    /// track counts each cycle once.
    pub fn modeled_stages<'a>(
        &self,
        track: u32,
        parent: &str,
        label: String,
        stages: impl IntoIterator<Item = (&'a str, f64, Option<PipeAttribution>)>,
    ) {
        if !self.enabled() {
            return;
        }
        let mut at_ns = 0u64;
        let mut placed = Vec::new();
        for (name, secs, attr) in stages {
            let dur_ns = (secs * 1e9).round().max(1.0) as u64;
            placed.push((name, at_ns, dur_ns, attr));
            at_ns += dur_ns;
        }
        self.modeled_span(track, parent, 0, at_ns, Some(label), None);
        for (name, start_ns, dur_ns, attr) in placed {
            self.modeled_span(track, name, start_ns, dur_ns, None, attr);
        }
    }

    fn submit(&self, record: SpanRecord) {
        if let Some(s) = &self.shared {
            s.sink.span(record);
        }
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        match &self.shared {
            Some(s) => at.duration_since(s.origin).as_nanos() as u64,
            None => 0,
        }
    }
}

/// RAII wall-clock span: created by [`Tracer::span`], submitted on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    track: u32,
    start: Option<Instant>,
    label: Option<String>,
    attr: Option<PipeAttribution>,
}

impl SpanGuard<'_> {
    /// Whether the span is live (tracing enabled at open time).
    pub fn active(&self) -> bool {
        self.start.is_some()
    }

    /// Attaches a label, building it only when the span is live.
    pub fn set_label(&mut self, label: impl FnOnce() -> String) {
        if self.start.is_some() {
            self.label = Some(label());
        }
    }

    /// Attaches modeled attribution.
    pub fn set_attr(&mut self, attr: PipeAttribution) {
        if self.start.is_some() {
            self.attr = Some(attr);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let record = SpanRecord {
                name: self.name.to_string(),
                kind: SpanKind::Wall,
                track: self.track,
                start_ns: self.tracer.ns_since_origin(start),
                dur_ns: start.elapsed().as_nanos() as u64,
                label: self.label.take(),
                attr: self.attr.take(),
            };
            self.tracer.submit(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_inert() {
        let tracer = Tracer::null();
        assert!(!tracer.enabled());
        assert_eq!(tracer.now_ns(), 0);
        assert_eq!(tracer.track("anything"), MAIN_TRACK);
        let mut span = tracer.span("noop", MAIN_TRACK);
        assert!(!span.active());
        span.set_label(|| panic!("label closure must not run when disabled"));
        drop(span);
        tracer.counter("noop", 1.0);
        tracer.modeled_span(MAIN_TRACK, "noop", 0, 1, None, None);
    }

    #[test]
    fn recording_captures_spans_counters_and_tracks() {
        let (tracer, sink) = Tracer::recording();
        assert!(tracer.enabled());
        let worker = tracer.track("worker");
        assert_eq!(worker, 1);
        {
            let mut outer = tracer.span("outer", MAIN_TRACK);
            outer.set_label(|| "ctx".to_string());
            let mut inner = tracer.span("inner", MAIN_TRACK);
            inner.set_attr(PipeAttribution { modeled_cycles: 7.0, ..Default::default() });
            drop(inner);
        }
        tracer.counter("bytes", 42.0);
        tracer.modeled_span(worker, "stage", 10, 5, None, None);

        let cap = sink.capture();
        assert_eq!(cap.tracks, vec!["main".to_string(), "worker".to_string()]);
        assert_eq!(cap.track_id("worker"), Some(1));
        assert_eq!(cap.spans.len(), 3);
        // Drop order: inner submitted before outer.
        assert_eq!(cap.spans[0].name, "inner");
        assert_eq!(cap.spans[0].attr.unwrap().modeled_cycles, 7.0);
        assert_eq!(cap.spans[1].name, "outer");
        assert_eq!(cap.spans[1].label.as_deref(), Some("ctx"));
        assert_eq!(cap.spans[1].kind, SpanKind::Wall);
        // Wall-clock containment: outer covers inner.
        assert!(cap.spans[1].start_ns <= cap.spans[0].start_ns);
        assert!(cap.spans[1].end_ns() >= cap.spans[0].end_ns());
        assert_eq!(cap.spans[2].kind, SpanKind::Modeled);
        assert_eq!((cap.spans[2].start_ns, cap.spans[2].dur_ns), (10, 5));
        assert_eq!(cap.counters.len(), 1);
        assert_eq!(cap.counters[0].value, 42.0);
        assert_eq!(cap.spans_on(worker).count(), 1);
    }

    #[test]
    fn bounded_sink_drops_spans_past_capacity_and_counts_them() {
        let sink = Arc::new(RecordingSink::with_capacity(2));
        let tracer = Tracer::with_sink(sink.clone());
        for i in 0..5 {
            tracer.modeled_span(MAIN_TRACK, "stage", i * 10, 5, None, None);
        }
        tracer.counter("unbounded", 1.0);
        let cap = sink.capture();
        assert_eq!(cap.spans.len(), 2, "buffer holds exactly its capacity");
        assert_eq!(cap.spans_dropped, 3);
        assert_eq!(sink.spans_dropped(), 3);
        // The retained spans are the earliest — drops start once full.
        assert_eq!(cap.spans[0].start_ns, 0);
        assert_eq!(cap.spans[1].start_ns, 10);
        assert_eq!(cap.counters.len(), 1, "counters are not bounded");
    }

    #[test]
    fn attribution_accumulates_fieldwise() {
        let mut a = PipeAttribution {
            neon_slot_cycles: 1.0,
            ls_slot_cycles: 2.0,
            stall_bytes: 3,
            loads: 1,
            stores: 1,
            neon_mac: 4,
            neon_alu: 2,
            neon_mov: 1,
            modeled_cycles: 10.0,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.stall_bytes, 6);
        assert_eq!(a.total_insts(), 18);
        assert!((a.modeled_cycles - 20.0).abs() < 1e-12);
    }
}
