//! # `ninec-obs` — zero-external-dependency telemetry for the ninec workspace
//!
//! The paper's claims are quantitative (Table I codeword accounting,
//! Table IV cross-codec ratios, decoder cycle costs), so every hot path
//! in the workspace should be self-reporting. This crate is the substrate:
//!
//! - [`Counter`] / [`Gauge`] — lock-free atomics behind `Arc` handles;
//! - [`Histogram`] — fixed 65-bucket log2 histogram (`0`, `[1,1]`,
//!   `[2,3]`, …, up to `u64::MAX`) with count/sum/min/max;
//! - [`SpanTimer`] — RAII monotonic-clock timer with per-thread nesting
//!   depth, feeding a `span.<name>.ns` histogram and an optional ordered
//!   trace buffer ([`set_trace_spans`] / [`take_spans`]);
//! - the **flight recorder** ([`trace`] module) — bounded per-thread
//!   ring buffers of typed [`TraceEvent`]s ([`trace_span_scope`] /
//!   [`trace_instant`] / [`take_trace`]) with Chrome trace-event and
//!   JSON-lines renderers;
//! - [`Registry`] — named get-or-register metric handles, with a
//!   process-wide instance at [`global()`];
//! - [`catalogue`] — every metric and span the data plane publishes,
//!   declared once with its kind; each entry looks its cell up on its
//!   first publish and keeps it, so warm calls never lock the registry;
//! - [`export::Snapshot`] — a decoupled point-in-time copy with
//!   Prometheus-text and JSON renderers.
//!
//! ## Switching telemetry off
//!
//! There is one build. [`set_runtime_enabled`] is the kill switch:
//! with it off, no call site in the workspace publishes a metric or
//! records a trace event, so the registry and the recorder stay as they
//! were. [`set_trace_enabled`] turns off the flight recorder alone.
//! Benchmarks flip these switches to measure the telemetry on/off delta
//! inside a single binary.
//!
//! ## Example
//!
//! ```
//! use ninec_obs as obs;
//!
//! let hits = obs::counter("ninec.encode.case.C1");
//! hits.add(3);
//! let h = obs::histogram("ninec.encode.codeword_bits");
//! h.record(2);
//! h.record(7);
//! {
//!     let _t = obs::span("encode");
//!     // ... timed work ...
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("ninec.encode.case.C1"), Some(3));
//! let _text = snap.render_prometheus();
//! let _json = snap.render_json();
//! ```

#![warn(missing_docs)]

pub mod catalogue;
pub mod export;
pub mod trace;

mod live;
pub use live::{
    begin_trace, current_trace, flush_thread_trace, global, is_compiled, runtime_enabled,
    set_runtime_enabled, set_trace_context, set_trace_enabled, set_trace_spans, set_trace_worker,
    snapshot_trace, span, take_spans, take_trace, trace_context, trace_enabled, trace_instant,
    trace_span_scope, trace_worker, Counter, Gauge, Histogram, Registry, SampleBatch, SpanEvent,
    SpanTimer, TraceScope,
};

pub use export::{HistogramSnapshot, Snapshot};
pub use trace::{
    normalize_trace, render_chrome_trace, render_jsonl, EventKind, RungKind, TraceEvent,
    TracePayload, GLOBAL_RING_CAPACITY, NO_SEGMENT, NO_WORKER, THREAD_RING_CAPACITY,
};

/// Get-or-register the counter `name` on the [`global()`] registry.
#[inline]
#[must_use]
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Get-or-register the gauge `name` on the [`global()`] registry.
#[inline]
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Get-or-register the histogram `name` on the [`global()`] registry.
#[inline]
#[must_use]
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// A point-in-time [`Snapshot`] of the [`global()`] registry.
#[inline]
#[must_use]
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clear every metric in the [`global()`] registry (handles stay valid).
#[inline]
pub fn reset() {
    global().reset();
}
