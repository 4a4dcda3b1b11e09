//! One span, both switches, one clock pair: what a catalogue span
//! records under each setting of the runtime and recorder switches.
//!
//! The switches, the registry and the recorder are process global, so
//! this file is its own test binary with a single test.

use ninec_obs::catalogue::{SpanDef, SPAN_JOB, SPAN_SCRUB_FRAME};
use ninec_obs::{EventKind, TraceEvent};

/// The `span.<name>.ns` histogram's `(count, sum)`, `None` while the
/// histogram is not registered.
fn sample_totals(span: SpanDef) -> Option<(u64, u64)> {
    let name = format!("span.{}.ns", span.name());
    ninec_obs::snapshot()
        .histogram(&name)
        .map(|h| (h.count, h.sum))
}

/// Opens and closes `span` under a trace of its own; returns the
/// events it recorded.
fn run_span(span: SpanDef) -> Vec<TraceEvent> {
    let trace = ninec_obs::begin_trace();
    drop(span.start());
    ninec_obs::take_trace()
        .into_iter()
        .filter(|e| e.trace == trace)
        .collect()
}

#[test]
fn one_span_records_by_both_switches_from_one_clock_pair() {
    let timed = SPAN_SCRUB_FRAME;

    // Runtime off: inert, whatever the recorder switch says.
    ninec_obs::set_runtime_enabled(false);
    assert!(run_span(timed).is_empty());
    ninec_obs::set_runtime_enabled(true);
    assert_eq!(sample_totals(timed), None, "runtime off registered");

    // Recorder off only: one histogram sample, no event.
    ninec_obs::set_trace_enabled(false);
    assert!(run_span(timed).is_empty());
    assert!(run_span(SPAN_JOB).is_empty());
    ninec_obs::set_trace_enabled(true);
    let (count, sum) = sample_totals(timed).expect("a timed span registers");
    assert_eq!(count, 1);

    // Both on: one start/end pair, and the pair's distance is the very
    // sample the histogram took.
    let events = run_span(timed);
    let kinds: Vec<(&str, EventKind)> = events.iter().map(|e| (e.name, e.kind)).collect();
    assert_eq!(
        kinds,
        [
            (timed.name(), EventKind::SpanStart),
            (timed.name(), EventKind::SpanEnd)
        ]
    );
    let (count_after, sum_after) = sample_totals(timed).expect("still registered");
    assert_eq!(count_after, count + 1);
    assert_eq!(events[1].nanos - events[0].nanos, sum_after - sum);

    // An untimed entry reaches the recorder and never a histogram.
    assert_eq!(run_span(SPAN_JOB).len(), 2);
    assert_eq!(sample_totals(SPAN_JOB), None);
}
