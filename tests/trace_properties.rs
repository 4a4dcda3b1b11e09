//! Structural properties of the flight recorder: for any bounded
//! sequence of span-open / span-close / instant operations,
//!
//! 1. every recorded `SpanStart` has exactly one matching `SpanEnd`
//!    (same span id), and
//! 2. a parent span's `[start, end]` sequence interval strictly
//!    contains every child span (and instant) recorded under it.
//!
//! The ops run on one thread, so the recorder's per-thread stack
//! discipline is exactly what's under test.

use ninec_obs::{EventKind, RungKind, TracePayload, NO_SEGMENT};
use proptest::prelude::*;
use std::collections::HashMap;

/// Interprets one op byte against a stack of live scopes: `0`/`1`
/// opens a nested span (depth-capped), `2` closes the innermost one,
/// `3`/`4` records an instant, anything else is a no-op.
fn run_ops(ops: &[u8]) {
    let mut stack: Vec<ninec_obs::TraceScope> = Vec::new();
    for &op in ops {
        match op {
            0 | 1 if stack.len() < 6 => {
                stack.push(ninec_obs::trace_span_scope(
                    "span",
                    NO_SEGMENT,
                    TracePayload::None,
                ));
            }
            2 => {
                stack.pop();
            }
            3 | 4 => ninec_obs::trace_instant("tick", 0, RungKind::None, TracePayload::None),
            _ => {}
        }
    }
    // Remaining scopes drop innermost-first here.
    while stack.pop().is_some() {}
}

proptest! {
    #[test]
    fn spans_pair_up_and_parents_strictly_contain_children(
        ops in proptest::collection::vec(0u8..6, 0..200),
    ) {
        let _ = ninec_obs::take_trace();
        let trace = ninec_obs::begin_trace();
        run_ops(&ops);
        let events: Vec<_> = ninec_obs::take_trace()
            .into_iter()
            .filter(|e| e.trace == trace)
            .collect();

        // Pair spans: id -> (start seq, end seq, parent id).
        let mut spans: HashMap<u64, (Option<u64>, Option<u64>, u64)> = HashMap::new();
        for ev in &events {
            match ev.kind {
                EventKind::SpanStart => {
                    let slot = spans.entry(ev.span).or_insert((None, None, ev.parent));
                    prop_assert!(slot.0.is_none(), "span {} started twice", ev.span);
                    slot.0 = Some(ev.seq);
                }
                EventKind::SpanEnd => {
                    let slot = spans.entry(ev.span).or_insert((None, None, ev.parent));
                    prop_assert!(slot.1.is_none(), "span {} ended twice", ev.span);
                    slot.1 = Some(ev.seq);
                }
                EventKind::Instant => {}
            }
        }

        for (&span, &(start, end, parent)) in &spans {
            // 1. Exactly one start and one end per span.
            prop_assert!(start.is_some(), "span {} has no SpanStart", span);
            prop_assert!(end.is_some(), "span {} has no SpanEnd", span);
            let (start, end) = (start.unwrap(), end.unwrap());
            prop_assert!(start < end, "span {} ends before it starts", span);
            // 2. Strict containment in the parent's interval.
            if parent != 0 {
                let slot = spans.get(&parent);
                prop_assert!(slot.is_some(), "span {} parents unknown span {}", span, parent);
                let &(p_start, p_end, _) = slot.unwrap();
                let (p_start, p_end) = (p_start.unwrap(), p_end.unwrap());
                prop_assert!(
                    p_start < start && end < p_end,
                    "child {} [{}, {}] escapes parent {} [{}, {}]",
                    span, start, end, parent, p_start, p_end
                );
            }
        }

        // Instants parent under the innermost open span, whose interval
        // must contain them.
        for ev in &events {
            if ev.kind == EventKind::Instant && ev.parent != 0 {
                let &(p_start, p_end, _) = spans.get(&ev.parent).unwrap();
                let (p_start, p_end) = (p_start.unwrap(), p_end.unwrap());
                prop_assert!(p_start < ev.seq && ev.seq < p_end);
            }
        }
        ninec_obs::set_trace_context(0, 0);
    }
}
