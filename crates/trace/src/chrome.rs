//! Chrome / Perfetto trace-event JSON export and validation.
//!
//! The export is the [JSON trace-event format] consumed by
//! `chrome://tracing` and <https://ui.perfetto.dev>: one `"X"` (complete)
//! event per span with microsecond `ts`/`dur`, `"C"` counter events, and
//! `"M"` metadata events naming each track. Wall spans get `cat: "wall"`,
//! modeled stages `cat: "modeled"`; pipe attribution rides in `args` so the
//! Perfetto UI shows NEON/LS occupancy per stage.
//!
//! [`validate_chrome_trace`] re-parses an export and checks the structural
//! invariants CI enforces: the document is well-formed JSON, every span is
//! properly nested within its track (containment or disjointness — never
//! partial overlap), and every counter series is monotone non-decreasing.
//!
//! [JSON trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::{self, Value};
use crate::{SpanKind, TraceCapture};

/// Timestamp tolerance when checking nesting, in microseconds (1 ns: our
/// exporter writes exact nanosecond-resolution values).
const EPS_US: f64 = 1e-3;

fn ns_to_us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

/// Serializes a capture to Chrome trace-event JSON.
pub fn chrome_trace_json(cap: &TraceCapture) -> String {
    let mut events = Vec::new();
    events.push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"lowbit\"}}"
            .to_string(),
    );
    for (tid, name) in cap.tracks.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            json::escape(name)
        ));
    }
    for span in &cap.spans {
        let cat = match span.kind {
            SpanKind::Wall => "wall",
            SpanKind::Modeled => "modeled",
        };
        let mut args = Vec::new();
        if let Some(label) = &span.label {
            args.push(format!("\"label\":\"{}\"", json::escape(label)));
        }
        if let Some(a) = &span.attr {
            args.push(format!("\"neon_slot_cycles\":{:.6}", a.neon_slot_cycles));
            args.push(format!("\"ls_slot_cycles\":{:.6}", a.ls_slot_cycles));
            args.push(format!("\"stall_bytes\":{}", a.stall_bytes));
            args.push(format!("\"loads\":{}", a.loads));
            args.push(format!("\"stores\":{}", a.stores));
            args.push(format!("\"neon_mac\":{}", a.neon_mac));
            args.push(format!("\"neon_alu\":{}", a.neon_alu));
            args.push(format!("\"neon_mov\":{}", a.neon_mov));
            args.push(format!("\"modeled_cycles\":{:.6}", a.modeled_cycles));
        }
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{cat}\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
            json::escape(&span.name),
            ns_to_us(span.start_ns),
            ns_to_us(span.dur_ns),
            span.track,
            args.join(",")
        ));
    }
    for c in &cap.counters {
        events.push(format!(
            "{{\"ph\":\"C\",\"name\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{:.6}}}}}",
            json::escape(&c.name),
            ns_to_us(c.ts_ns),
            c.value
        ));
    }
    format!(
        "{{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n{}\n]\n}}\n",
        events.join(",\n")
    )
}

/// What a successful validation saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceValidation {
    /// Total trace events (all phases).
    pub events: usize,
    /// `"X"` span events.
    pub spans: usize,
    /// `"C"` counter samples.
    pub counters: usize,
    /// Distinct tracks spans appeared on.
    pub tracks: usize,
}

struct XEvent {
    tid: u64,
    ts: f64,
    dur: f64,
    name: String,
}

/// Validates a Chrome trace-event JSON document: well-formed, spans
/// properly nested per track, counter series monotone non-decreasing.
pub fn validate_chrome_trace(text: &str) -> Result<TraceValidation, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\"")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;

    let mut spans: Vec<XEvent> = Vec::new();
    let mut counters: Vec<(String, f64, f64)> = Vec::new(); // (name, ts, value)
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?
            .to_string();
        match ph {
            "X" => {
                let num = |key: &str| {
                    ev.get(key)
                        .and_then(Value::as_num)
                        .ok_or_else(|| format!("event {i} ({name}): missing numeric \"{key}\""))
                };
                let (ts, dur, tid) = (num("ts")?, num("dur")?, num("tid")?);
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative ts/dur"));
                }
                spans.push(XEvent { tid: tid as u64, ts, dur, name });
            }
            "C" => {
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("counter {i} ({name}): missing \"ts\""))?;
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("counter {i} ({name}): missing args.value"))?;
                counters.push((name, ts, value));
            }
            "M" => {}
            other => return Err(format!("event {i} ({name}): unsupported phase \"{other}\"")),
        }
    }

    check_nesting(&mut spans)?;
    check_monotone_counters(&mut counters)?;

    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    Ok(TraceValidation {
        events: events.len(),
        spans: spans.len(),
        counters: counters.len(),
        tracks: tids.len(),
    })
}

/// Spans on one track must either nest or be disjoint; partial overlap means
/// the trace is lying about its structure.
fn check_nesting(spans: &mut [XEvent]) -> Result<(), String> {
    spans.sort_by(|a, b| {
        a.tid
            .cmp(&b.tid)
            .then(a.ts.partial_cmp(&b.ts).expect("finite ts"))
            // Ties open the longer (enclosing) span first.
            .then(b.dur.partial_cmp(&a.dur).expect("finite dur"))
    });
    let mut current_tid = u64::MAX;
    let mut stack: Vec<f64> = Vec::new(); // open span end times
    for s in spans.iter() {
        if s.tid != current_tid {
            current_tid = s.tid;
            stack.clear();
        }
        let end = s.ts + s.dur;
        while let Some(&top_end) = stack.last() {
            if s.ts >= top_end - EPS_US {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top_end) = stack.last() {
            if end > top_end + EPS_US {
                return Err(format!(
                    "span \"{}\" on tid {} partially overlaps its parent ({} + {} > {})",
                    s.name, s.tid, s.ts, s.dur, top_end
                ));
            }
        }
        stack.push(end);
    }
    Ok(())
}

/// Every counter series must be non-decreasing over time (the engines emit
/// cumulative series: total modeled millis, prepack hits, high-water bytes).
fn check_monotone_counters(counters: &mut [(String, f64, f64)]) -> Result<(), String> {
    counters.sort_by(|a, b| {
        a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).expect("finite counter ts"))
    });
    for pair in counters.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        if prev.0 == next.0 && next.2 < prev.2 {
            return Err(format!(
                "counter \"{}\" decreases: {} -> {} at ts {}",
                next.0, prev.2, next.2, next.1
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipeAttribution, Tracer, MAIN_TRACK};

    fn sample_capture() -> TraceCapture {
        let (tracer, sink) = Tracer::recording();
        let worker = tracer.track("worker \"0\"");
        {
            let mut outer = tracer.span("layer", MAIN_TRACK);
            outer.set_label(|| "conv1 algo=Gemm".to_string());
            let _inner = tracer.span("conv", MAIN_TRACK);
        }
        tracer.modeled_span(
            worker,
            "gemm",
            100,
            50,
            None,
            Some(PipeAttribution { modeled_cycles: 12.5, stall_bytes: 64, ..Default::default() }),
        );
        tracer.counter("total_ms", 1.0);
        tracer.counter("total_ms", 2.5);
        sink.capture()
    }

    #[test]
    fn export_validates_and_counts_match() {
        let cap = sample_capture();
        let text = chrome_trace_json(&cap);
        let v = validate_chrome_trace(&text).unwrap();
        assert_eq!(v.spans, cap.spans.len());
        assert_eq!(v.counters, cap.counters.len());
        assert_eq!(v.tracks, 2);
        assert!(text.contains("\"cat\":\"modeled\""));
        assert!(text.contains("\"stall_bytes\":64"));
        assert!(text.contains("worker \\\"0\\\""));
    }

    #[test]
    fn large_trace_round_trips() {
        // 12 000 spans with non-ASCII labels: the parser must stay linear in
        // the document size and decode every string exactly.
        let (tracer, sink) = Tracer::recording();
        let worker = tracer.track("wörker ✓");
        for i in 0..12_000u64 {
            let track = if i % 2 == 0 { MAIN_TRACK } else { worker };
            let label = format!("tile {i} – k₀ \"{}\"", i % 7);
            tracer.modeled_span(track, "gemm tile", i * 100, 50, Some(label), None);
        }
        tracer.counter("total_ms", 1.0);
        let cap = sink.capture();
        let text = chrome_trace_json(&cap);
        let v = validate_chrome_trace(&text).unwrap();
        assert_eq!(v.spans, 12_000);
        assert_eq!(v.tracks, 2);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let labels: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("args")?.get("label")?.as_str())
            .collect();
        let want: Vec<&str> = cap.spans.iter().map(|s| s.label.as_deref().unwrap()).collect();
        assert_eq!(labels, want);
        let track_names: Vec<&str> =
            events.iter().filter_map(|e| e.get("args")?.get("name")?.as_str()).collect();
        assert!(track_names.contains(&"wörker ✓"));
    }

    #[test]
    fn rejects_partial_overlap() {
        let text = r#"{"traceEvents":[
            {"ph":"X","name":"a","ts":0,"dur":10,"pid":1,"tid":0,"args":{}},
            {"ph":"X","name":"b","ts":5,"dur":10,"pid":1,"tid":0,"args":{}}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn accepts_disjoint_and_nested_spans() {
        let text = r#"{"traceEvents":[
            {"ph":"X","name":"p","ts":0,"dur":10,"pid":1,"tid":0,"args":{}},
            {"ph":"X","name":"c1","ts":0,"dur":4,"pid":1,"tid":0,"args":{}},
            {"ph":"X","name":"c2","ts":4,"dur":6,"pid":1,"tid":0,"args":{}},
            {"ph":"X","name":"next","ts":20,"dur":5,"pid":1,"tid":0,"args":{}},
            {"ph":"X","name":"other track","ts":3,"dur":30,"pid":1,"tid":7,"args":{}}
        ]}"#;
        let v = validate_chrome_trace(text).unwrap();
        assert_eq!(v.spans, 5);
        assert_eq!(v.tracks, 2);
    }

    #[test]
    fn rejects_decreasing_counters() {
        let text = r#"{"traceEvents":[
            {"ph":"C","name":"hits","ts":0,"pid":1,"tid":0,"args":{"value":3}},
            {"ph":"C","name":"hits","ts":1,"pid":1,"tid":0,"args":{"value":2}}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
    }

    #[test]
    fn rejects_structural_damage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":{}}"#).is_err());
        // Span without a duration.
        let text = r#"{"traceEvents":[{"ph":"X","name":"a","ts":0,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(text).is_err());
        // Unknown phase.
        let text = r#"{"traceEvents":[{"ph":"Q","name":"a","ts":0,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(text).is_err());
    }
}
