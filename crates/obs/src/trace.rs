//! Typed flight-recorder events and their exporters.
//!
//! A [`TraceEvent`] is one moment on a decode timeline: a span opening
//! or closing, or a point-in-time instant (a CRC verdict, an RS repair,
//! an X-erasure, a resync probe). Events carry the trace id they belong
//! to, their parent span, the worker that recorded them, the segment
//! they concern and, where known, the ladder rung that recovered that
//! segment — enough to reconstruct the Fig 4c per-decoder load picture
//! as a timeline instead of a histogram.
//!
//! Like [`crate::export`], this module holds only data and renderers;
//! the recorder that produces events lives beside the registry. Golden
//! tests build events by hand, and while [`crate::trace_enabled`] is
//! off the recorder produces none.
//!
//! Two renderers are provided:
//!
//! - [`render_chrome_trace`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` and Perfetto (`B`/`E` duration events per span,
//!   `i` instants, one `tid` lane per worker);
//! - [`render_jsonl`] — one compact JSON object per line, for `grep`
//!   and downstream tooling.

use serde_json::Value;

/// Sentinel worker id for events recorded outside the engine pool.
pub const NO_WORKER: u32 = u32::MAX;

/// Sentinel segment index for events not tied to one segment.
pub const NO_SEGMENT: u32 = u32::MAX;

/// Capacity of each per-thread flight-recorder ring (events).
pub const THREAD_RING_CAPACITY: usize = 4096;

/// Capacity of the process-wide flight-recorder ring that per-thread
/// rings drain into (events).
pub const GLOBAL_RING_CAPACITY: usize = 16384;

/// What kind of moment a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"` in Chrome trace terms).
    SpanStart,
    /// A span closed (`ph: "E"`).
    SpanEnd,
    /// A point-in-time event (`ph: "i"`).
    Instant,
}

impl EventKind {
    /// The Chrome trace-event phase letter.
    #[must_use]
    pub fn chrome_phase(self) -> &'static str {
        match self {
            EventKind::SpanStart => "B",
            EventKind::SpanEnd => "E",
            EventKind::Instant => "i",
        }
    }

    /// Stable lower-snake name used in the JSON-lines dump.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Instant => "instant",
        }
    }
}

/// Which rung of the strict → repair → salvage ladder recovered a
/// segment, when the recording site knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungKind {
    /// Not a per-rung event.
    None,
    /// Decoded from the wire bytes as written.
    Strict,
    /// Rebuilt from GF(256) parity before decoding.
    Repaired,
    /// Unrecoverable; its output span was X-erased.
    Salvaged,
}

impl RungKind {
    /// Stable lower-case name (`None` renders as `"-"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RungKind::None => "-",
            RungKind::Strict => "strict",
            RungKind::Repaired => "repaired",
            RungKind::Salvaged => "salvaged",
        }
    }
}

/// The small typed payload a recording site attaches to an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePayload {
    /// No extra data.
    None,
    /// An executor job: its index.
    Job {
        /// Job index in the submission order.
        index: u32,
    },
    /// A segment CRC verdict from the frame walker.
    Crc {
        /// Whether the stored CRC matched the recomputed one.
        ok: bool,
        /// The (untrusted) `source_trits` claim from the segment header.
        claimed_trits: u32,
    },
    /// A resync scan across damaged bytes.
    Resync {
        /// Byte offset the scan started from.
        from: u32,
        /// Byte offset of the next parseable boundary (frame end if none).
        to: u32,
    },
    /// An RS parity reconstruction.
    Repair {
        /// Interleaved parity group the segment belongs to.
        group: u32,
        /// Number of parity shards consumed by the reconstruction.
        parity_used: u32,
    },
    /// An X-erasure covering a damaged segment's output span.
    Erase {
        /// Number of trits filled with `X`.
        trits: u32,
    },
    /// A parity-group-scoped event (e.g. one repair-group job).
    Group {
        /// Interleaved parity group index.
        group: u32,
    },
}

/// One recorded flight-recorder event.
///
/// `Copy` on purpose: ring buffers shuffle these around without
/// allocation, and the payload is a few machine words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Process-wide record order (total order across threads).
    pub seq: u64,
    /// Nanoseconds since the process trace epoch.
    pub nanos: u64,
    /// Span start/end or instant.
    pub kind: EventKind,
    /// Static site name (`"job"`, `"segment_decode"`, `"rung"`, …).
    pub name: &'static str,
    /// Trace id from [`begin_trace`](crate::begin_trace); `0` when the
    /// event fell outside any explicit trace.
    pub trace: u64,
    /// Span id (`0` for instants).
    pub span: u64,
    /// Enclosing span id (`0` for roots).
    pub parent: u64,
    /// Engine worker that recorded the event, [`NO_WORKER`] outside the
    /// pool.
    pub worker: u32,
    /// Segment index the event concerns, [`NO_SEGMENT`] when none.
    pub segment: u32,
    /// Ladder rung, when the site knows it ([`RungKind::None`] otherwise).
    pub rung: RungKind,
    /// Typed payload.
    pub payload: TracePayload,
}

impl TraceEvent {
    /// The Chrome trace `tid` lane: worker `w` maps to lane `w + 1`,
    /// events recorded outside the pool to lane `0`.
    #[must_use]
    pub fn chrome_tid(&self) -> u64 {
        if self.worker == NO_WORKER {
            0
        } else {
            u64::from(self.worker) + 1
        }
    }
}

fn payload_fields(payload: &TracePayload, out: &mut Vec<(String, Value)>) {
    match *payload {
        TracePayload::None => {}
        TracePayload::Job { index } => {
            out.push(("job".to_owned(), serde_json::json!(index)));
        }
        TracePayload::Crc { ok, claimed_trits } => {
            out.push(("crc_ok".to_owned(), serde_json::json!(ok)));
            out.push(("claimed_trits".to_owned(), serde_json::json!(claimed_trits)));
        }
        TracePayload::Resync { from, to } => {
            out.push(("from".to_owned(), serde_json::json!(from)));
            out.push(("to".to_owned(), serde_json::json!(to)));
        }
        TracePayload::Repair { group, parity_used } => {
            out.push(("group".to_owned(), serde_json::json!(group)));
            out.push(("parity_used".to_owned(), serde_json::json!(parity_used)));
        }
        TracePayload::Erase { trits } => {
            out.push(("trits".to_owned(), serde_json::json!(trits)));
        }
        TracePayload::Group { group } => {
            out.push(("group".to_owned(), serde_json::json!(group)));
        }
    }
}

fn common_fields(ev: &TraceEvent, out: &mut Vec<(String, Value)>) {
    out.push(("seq".to_owned(), serde_json::json!(ev.seq)));
    out.push(("trace".to_owned(), serde_json::json!(ev.trace)));
    if ev.span != 0 {
        out.push(("span".to_owned(), serde_json::json!(ev.span)));
    }
    if ev.parent != 0 {
        out.push(("parent".to_owned(), serde_json::json!(ev.parent)));
    }
    if ev.worker != NO_WORKER {
        out.push(("worker".to_owned(), serde_json::json!(ev.worker)));
    }
    if ev.segment != NO_SEGMENT {
        out.push(("segment".to_owned(), serde_json::json!(ev.segment)));
    }
    if ev.rung != RungKind::None {
        out.push(("rung".to_owned(), serde_json::json!(ev.rung.label())));
    }
    payload_fields(&ev.payload, out);
}

fn chrome_event(ev: &TraceEvent) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("name".to_owned(), serde_json::json!(ev.name)),
        ("cat".to_owned(), serde_json::json!("ninec")),
        ("ph".to_owned(), serde_json::json!(ev.kind.chrome_phase())),
        ("ts".to_owned(), serde_json::json!(ev.nanos as f64 / 1000.0)),
        ("pid".to_owned(), serde_json::json!(1u64)),
        ("tid".to_owned(), serde_json::json!(ev.chrome_tid())),
    ];
    if ev.kind == EventKind::Instant {
        // Thread-scoped instant: renders as a tick on the worker's lane.
        fields.push(("s".to_owned(), serde_json::json!("t")));
    }
    let mut args: Vec<(String, Value)> = Vec::new();
    common_fields(ev, &mut args);
    fields.push(("args".to_owned(), Value::Object(args)));
    Value::Object(fields)
}

/// Renders events as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and
/// Perfetto. Spans become `B`/`E` duration events, instants become
/// thread-scoped `i` events; each engine worker gets its own `tid`
/// lane ([`TraceEvent::chrome_tid`]).
#[must_use]
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let rendered: Vec<Value> = events.iter().map(chrome_event).collect();
    let doc = Value::Object(vec![
        ("traceEvents".to_owned(), Value::Array(rendered)),
        ("displayTimeUnit".to_owned(), serde_json::json!("ns")),
    ]);
    serde_json::to_string_pretty(&doc).expect("trace JSON cannot fail")
}

/// Renders events as compact JSON lines, one event per line:
/// `{"seq": …, "ns": …, "kind": "span_start", "name": …, …}`.
#[must_use]
pub fn render_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let mut fields: Vec<(String, Value)> = vec![
            ("ns".to_owned(), serde_json::json!(ev.nanos)),
            ("kind".to_owned(), serde_json::json!(ev.kind.label())),
            ("name".to_owned(), serde_json::json!(ev.name)),
        ];
        common_fields(ev, &mut fields);
        out.push_str(
            &serde_json::to_string(&Value::Object(fields)).expect("trace JSON cannot fail"),
        );
        out.push('\n');
    }
    out
}

/// Rewrites recorder-assigned coordinates into deterministic ones so a
/// fixed decode renders byte-identically across runs: events are sorted
/// by `seq` then renumbered `0, 1, 2, …`, timestamps become
/// `seq × 1000` ns, and trace/span ids are renumbered in order of first
/// appearance (`0` stays `0`). Golden tests call this before rendering.
pub fn normalize_trace(events: &mut [TraceEvent]) {
    fn remap(ids: &mut Vec<u64>, id: u64) -> u64 {
        if id == 0 {
            return 0;
        }
        match ids.iter().position(|&x| x == id) {
            Some(i) => i as u64 + 1,
            None => {
                ids.push(id);
                ids.len() as u64
            }
        }
    }
    events.sort_by_key(|e| e.seq);
    let mut traces: Vec<u64> = Vec::new();
    let mut spans: Vec<u64> = Vec::new();
    for (i, ev) in events.iter_mut().enumerate() {
        ev.seq = i as u64;
        ev.nanos = i as u64 * 1000;
        ev.trace = remap(&mut traces, ev.trace);
        ev.span = remap(&mut spans, ev.span);
        ev.parent = remap(&mut spans, ev.parent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind, span: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            seq,
            nanos: seq * 7919,
            kind,
            name: "t",
            trace: 42,
            span,
            parent,
            worker: NO_WORKER,
            segment: NO_SEGMENT,
            rung: RungKind::None,
            payload: TracePayload::None,
        }
    }

    #[test]
    fn chrome_document_shape() {
        let events = [
            TraceEvent {
                worker: 2,
                segment: 5,
                rung: RungKind::Repaired,
                payload: TracePayload::Repair {
                    group: 1,
                    parity_used: 1,
                },
                ..ev(3, EventKind::Instant, 0, 0)
            },
            ev(4, EventKind::SpanStart, 9, 0),
            ev(5, EventKind::SpanEnd, 9, 0),
        ];
        let doc = serde_json::from_str(&render_chrome_trace(&events)).unwrap();
        let list = doc["traceEvents"].as_array().unwrap();
        assert_eq!(list.len(), 3);
        assert_eq!(list[0]["ph"].as_str(), Some("i"));
        assert_eq!(list[0]["tid"].as_u64(), Some(3)); // worker 2 -> lane 3
        assert_eq!(list[0]["args"]["rung"].as_str(), Some("repaired"));
        assert_eq!(list[0]["args"]["segment"].as_u64(), Some(5));
        assert_eq!(list[0]["args"]["parity_used"].as_u64(), Some(1));
        assert_eq!(list[1]["ph"].as_str(), Some("B"));
        assert_eq!(list[1]["tid"].as_u64(), Some(0)); // NO_WORKER -> lane 0
        assert_eq!(list[2]["ph"].as_str(), Some("E"));
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let events = [
            ev(1, EventKind::SpanStart, 4, 0),
            ev(2, EventKind::SpanEnd, 4, 0),
        ];
        let text = render_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = serde_json::from_str(line).unwrap();
            assert_eq!(v["trace"].as_u64(), Some(42));
            assert_eq!(v["span"].as_u64(), Some(4));
        }
    }

    #[test]
    fn normalize_is_deterministic_and_order_preserving() {
        let mut events = vec![
            ev(100, EventKind::SpanStart, 77, 0),
            ev(90, EventKind::Instant, 0, 77),
            ev(110, EventKind::SpanEnd, 77, 0),
        ];
        normalize_trace(&mut events);
        // Sorted by original seq, renumbered from zero.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(events[0].kind, EventKind::Instant);
        assert_eq!(events[1].nanos, 1000);
        // Span 77 was renumbered consistently everywhere it appears.
        assert_eq!(events[0].parent, 1);
        assert_eq!(events[1].span, 1);
        assert_eq!(events[2].span, 1);
        assert_eq!(events[0].trace, 1);
    }
}
