//! Flight-recorder behavior tests: bounded rings with oldest-first
//! eviction, span nesting, the kill switch, and cross-thread context
//! inheritance.
//!
//! The recorder is process-global (one global ring, thread-local
//! buffers), so every test that drains it holds `LOCK` and filters by
//! its own trace id.

use ninec_obs::catalogue::{SPAN_DECODE_FRAME, SPAN_REPAIR_GROUP, SPAN_SEGMENT_DECODE};
use ninec_obs::{EventKind, RungKind, TracePayload, THREAD_RING_CAPACITY};
use std::sync::{Mutex, MutexGuard};
use std::thread;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes recorder tests; recovers from a poisoned lock so one
/// failing test doesn't cascade.
fn recorder() -> MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[test]
fn ring_wraparound_is_bounded_and_oldest_first() {
    let _g = recorder();
    let _ = ninec_obs::take_trace(); // drain leftovers from other tests
    let trace = ninec_obs::begin_trace();

    // Overfill the thread ring by 100 events; the segment field carries
    // each event's birth index so eviction order is observable.
    let total = THREAD_RING_CAPACITY + 100;
    for i in 0..total {
        ninec_obs::trace_instant(
            "wrap",
            u32::try_from(i).unwrap(),
            RungKind::None,
            TracePayload::None,
        );
    }

    let events: Vec<_> = ninec_obs::take_trace()
        .into_iter()
        .filter(|e| e.trace == trace)
        .collect();

    // Bounded: exactly the ring capacity survived, not `total`.
    assert_eq!(events.len(), THREAD_RING_CAPACITY);
    // Oldest-first eviction: the survivors are the *last* capacity
    // events, in record order.
    for (slot, ev) in events.iter().enumerate() {
        assert_eq!(ev.segment as usize, 100 + slot);
    }
    ninec_obs::set_trace_context(0, 0);
}

#[test]
fn spans_nest_and_carry_the_worker_stamp() {
    let _g = recorder();
    let _ = ninec_obs::take_trace();
    let trace = ninec_obs::begin_trace();
    let prev = ninec_obs::set_trace_worker(7);

    {
        let _outer = SPAN_DECODE_FRAME.start();
        ninec_obs::trace_instant("tick", 3, RungKind::Strict, TracePayload::None);
        let _inner = SPAN_SEGMENT_DECODE.start_at(3, TracePayload::None);
    }

    ninec_obs::set_trace_worker(prev);
    let events: Vec<_> = ninec_obs::take_trace()
        .into_iter()
        .filter(|e| e.trace == trace)
        .collect();

    let (outer, inner) = (SPAN_DECODE_FRAME.name(), SPAN_SEGMENT_DECODE.name());
    let names: Vec<(&str, EventKind)> = events.iter().map(|e| (e.name, e.kind)).collect();
    assert_eq!(
        names,
        vec![
            (outer, EventKind::SpanStart),
            ("tick", EventKind::Instant),
            (inner, EventKind::SpanStart),
            (inner, EventKind::SpanEnd),
            (outer, EventKind::SpanEnd),
        ]
    );
    let outer_span = events[0].span;
    // The instant and the inner span both parent under the open outer
    // span; the outer span has no parent.
    assert_eq!(events[0].parent, 0);
    assert_eq!(events[1].parent, outer_span);
    assert_eq!(events[2].parent, outer_span);
    // Every event carries the thread's worker stamp.
    assert!(events.iter().all(|e| e.worker == 7));
    ninec_obs::set_trace_context(0, 0);
}

#[test]
fn kill_switch_drops_events_but_still_closes_open_spans() {
    let _g = recorder();
    let _ = ninec_obs::take_trace();
    let trace = ninec_obs::begin_trace();

    {
        let _open = SPAN_DECODE_FRAME.start();
        ninec_obs::set_trace_enabled(false);
        // Dropped: the switch is off.
        ninec_obs::trace_instant("lost", 0, RungKind::None, TracePayload::None);
        // Inert scope: no start, so no end either.
        let _inert = SPAN_REPAIR_GROUP.start();
        // `_open` drops here: its SpanEnd is recorded even though the
        // switch flipped mid-span, keeping start/end pairs balanced.
    }

    ninec_obs::set_trace_enabled(true);
    let events: Vec<_> = ninec_obs::take_trace()
        .into_iter()
        .filter(|e| e.trace == trace)
        .collect();
    let open = SPAN_DECODE_FRAME.name();
    let names: Vec<(&str, EventKind)> = events.iter().map(|e| (e.name, e.kind)).collect();
    assert_eq!(
        names,
        vec![(open, EventKind::SpanStart), (open, EventKind::SpanEnd),]
    );
    ninec_obs::set_trace_context(0, 0);
}

#[test]
fn worker_threads_inherit_the_captured_context() {
    let _g = recorder();
    let _ = ninec_obs::take_trace();
    let trace = ninec_obs::begin_trace();

    let parent_span;
    {
        let _submit = SPAN_DECODE_FRAME.start();
        let ctx = ninec_obs::trace_context();
        parent_span = ctx.1;
        assert_eq!(ctx.0, trace);
        thread::scope(|s| {
            s.spawn(move || {
                ninec_obs::set_trace_context(ctx.0, ctx.1);
                ninec_obs::set_trace_worker(2);
                ninec_obs::trace_instant("job", 5, RungKind::None, TracePayload::None);
                // Thread exit also drains the local ring via its TLS
                // destructor, but scope join can observe completion
                // before that destructor runs — flush explicitly so the
                // drain is ordered before `take_trace` below.
                ninec_obs::flush_thread_trace();
            });
        });
    }

    let events: Vec<_> = ninec_obs::take_trace()
        .into_iter()
        .filter(|e| e.trace == trace && e.name == "job")
        .collect();
    assert_eq!(events.len(), 1);
    // The worker event nests under the submitting span and carries the
    // worker id even though it was recorded on another thread.
    assert_eq!(events[0].parent, parent_span);
    assert_eq!(events[0].worker, 2);
    assert_eq!(events[0].segment, 5);
    ninec_obs::set_trace_context(0, 0);
}
