//! `small_segments_v3`: many small parity-protected segments, a damaged
//! copy decoded through the repair ladder, and a streaming decode.
//!
//! 4 M trits in 4 Ki-trit segments make about a thousand data segments
//! plus a quarter as many parity segments, so the per-segment costs —
//! plan scan, checksums, one executor job each, parity reconstruction,
//! salvage — are a large share of the time, where the bulk workloads
//! barely see them. The damage is seeded: one byte flipped in the payload
//! of one segment in eight, shaped so parity rebuilds most damaged
//! segments and a fixed number of over-budget groups lose theirs to X
//! erasures. The benchmark predicts exactly which trits come back erased,
//! so the recovered share is checked, not only reported.

use std::ops::Range;
use std::time::Instant;

use super::{
    covers, end_to_end, fast_rate, flip, latency, metric, set_up, Checker, ChunkReader, Layers,
    Opts, Run,
};
use crate::api::{self, Codec, Layout, Policy, SlotKind, SEGMENT_HEADER_BYTES};
use crate::gen::{digest, Profile, SplitMix64};
use crate::stats::{median, Reservoir};
use crate::trace::Tracer;
use ninec_testdata::trit::{Trit, TritVec};

const K: usize = 8;
const PARITY: (u8, u8) = (4, 1);
/// Two engine threads: the executor's job scheduling is part of what
/// this workload measures.
const THREADS: usize = 2;

pub fn run(opts: &Opts) -> api::Result<Run> {
    let (profile, segment_bits) = if opts.tiny {
        (Profile::ckt1(20, 2000, 0.90), 512)
    } else {
        (Profile::ckt1(500, 8000, 0.90), 4096)
    };
    let src = profile.generate(&mut SplitMix64::new(opts.seed, 1));
    let mut check = Checker::default();
    let (state, setup_s) = set_up(|| {
        let codec = Codec::new(K, THREADS, segment_bits, Some(PARITY));
        let frame = codec.encode_frame(&src)?;
        let clean = codec.decode_frame(&frame, Policy::Strict)?.trits;
        let layout = codec.layout(&frame)?;
        let damage = damage(&frame, &layout, &mut SplitMix64::new(opts.seed, 2));
        let repaired = codec.decode_frame(&damage.bytes, Policy::Repair)?;
        let (streamed, _) = codec.decode_stream(&mut ChunkReader::new(&frame))?;
        Ok((codec, frame, clean, damage, repaired, streamed))
    })?;
    let (codec, frame, clean, damage, repaired, streamed) = state;
    let (damaged, erased) = (&damage.bytes, &damage.erased);
    check.op(clean.len() == src.len() && covers(&clean, &src, 0), || {
        "decoded frame lost care bits".into()
    });
    check.op(streamed == clean, || "stream decode differs".into());
    let mut expected = erase(&clean, erased);
    if opts.corrupt {
        flip(&mut expected, 0);
    }
    check.op(
        repaired.trits == expected && repaired.erased == *erased,
        || {
            format!(
                "repair erased {:?}, predicted {:?}",
                repaired.erased, erased
            )
        },
    );
    let erased_trits: usize = erased.iter().map(ExactSizeIterator::len).sum();
    let recovered_pct = 100.0 * (1.0 - erased_trits as f64 / src.len() as f64);

    let mut tr = Tracer::new(opts.trace);
    let mut layers = Layers::default();
    let v2 = Codec::new(K, THREADS, segment_bits, None);
    let (mut enc, mut dec, mut stream) = (
        Reservoir::new(opts.seed),
        Reservoir::new(opts.seed),
        Reservoir::new(opts.seed),
    );
    // Traced run only: v2 encodes and untraced repair decodes.
    let (mut enc_v2, mut plain) = (Vec::new(), Vec::new());
    let mut repaired_segments = 0;
    let start = Instant::now();
    while enc.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let encoded = tr.span("core.engine.encode_frame", |_| codec.encode_frame(&src));
        enc.push(t.elapsed().as_secs_f64());
        if let Some(f) = check.call("encode_frame", encoded) {
            check.op(f == frame, || "encode_frame is not deterministic".into());
        }
        let t = Instant::now();
        let decoded = if opts.trace {
            layers.decode(&mut tr, &codec, damaged, Policy::Repair)
        } else {
            codec.decode_frame(damaged, Policy::Repair)
        };
        dec.push(t.elapsed().as_secs_f64());
        if let Some(d) = check.call("repair decode", decoded) {
            repaired_segments = d.repaired;
            check.op(d.trits == expected && d.erased == *erased, || {
                "repair decode differs from the prediction".into()
            });
        }
        if opts.trace {
            layers.probe(&mut tr, &mut check, &codec, &src, &frame, &clean);
            let t = Instant::now();
            let v2_frame = tr.span("core.engine.encode_frame.v2", |_| v2.encode_frame(&src));
            enc_v2.push(t.elapsed().as_secs_f64());
            check.call("v2 encode_frame", v2_frame);
            let t = Instant::now();
            let decoded = codec.decode_frame(damaged, Policy::Repair);
            plain.push(t.elapsed().as_secs_f64());
            if let Some(d) = check.call("repair decode", decoded) {
                check.op(d.trits == expected, || "repair decode differs".into());
            }
        } else {
            let t = Instant::now();
            let streamed = codec.decode_stream(&mut ChunkReader::new(&frame));
            stream.push(t.elapsed().as_secs_f64());
            if let Some((trits, _)) = check.call("stream decode", streamed) {
                check.op(trits == clean, || "stream decode differs".into());
            }
        }
    }

    let mut extras = vec![
        metric("input.trits", src.len() as f64, "count"),
        metric("iterations", enc.seen() as f64, "count"),
        metric("recovered_pct", recovered_pct, "%"),
        metric(
            "core.engine.salvage.damaged_segments",
            damage.segments as f64,
            "count",
        ),
        metric(
            "core.engine.salvage.erased_trits",
            erased_trits as f64,
            "count",
        ),
        metric(
            "core.engine.ecc.repaired_segments",
            repaired_segments as f64,
            "count",
        ),
    ];
    extras.extend(latency("encode_frame", &enc));
    extras.extend(latency("repair_decode", &dec));
    let metrics = if opts.trace {
        let (layer_metrics, more) = layers.metrics(&tr);
        extras.extend(more);
        let decodes = dec.seen() as f64;
        let pct = |a: &[f64], b: &[f64]| (median(a) / median(b) - 1.0) * 100.0;
        extras.extend([
            metric("bench.trace_overhead_pct", pct(&dec, &plain), "%"),
            metric(
                "core.engine.ecc.encode_overhead_pct",
                pct(&enc, &enc_v2),
                "%",
            ),
            metric(
                "core.engine.ecc.repair_ns_per_segment",
                tr.total("core.engine.exec.repair").0 as f64 / (decodes * damage.segments as f64),
                "ns",
            ),
        ]);
        layer_metrics
    } else {
        extras.push(metric(
            "stream_decode_mbit_s",
            fast_rate(src.len(), &stream),
            "Mbit/s",
        ));
        extras.extend(latency("stream_decode", &stream));
        end_to_end([
            ("setup_s", setup_s),
            ("peak_rss_mib", super::peak_rss_mib()),
            (
                "stored_bits_per_trit",
                frame.len() as f64 * 8.0 / src.len() as f64,
            ),
            ("write_mbit_s", fast_rate(src.len(), &enc)),
            ("read_mbit_s", fast_rate(src.len(), &dec)),
        ])
    };
    Ok(Run {
        metrics,
        extras,
        check,
        input_digest: digest(&src),
        tracer: tr,
    })
}

/// Flips one payload byte in one data segment out of eight segments and
/// predicts the outcome. The damage is shaped so every seed does the
/// same repair work: one damaged group in eight gets one more damaged
/// member than it has parity segments and loses those members to X runs
/// over their source trits; every other damaged group has one damaged
/// member, which parity rebuilds. Which groups are hit is seeded, and the
/// damaged members spread evenly over the frame, whose early segments
/// (denser cubes) are the larger. Returns the damaged frame and the
/// predicted erased ranges in stream order.
///
/// No two damaged segments are neighbours: the plan merges a run of
/// damaged neighbours into one damaged range, and then skips parity
/// repair for the whole frame and misplaces the salvaged trits after the
/// run (see README.md), which no check here could call correct.
fn damage(frame: &[u8], layout: &Layout, rng: &mut SplitMix64) -> Damage {
    let n = layout.slots.len();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, slot) in layout.slots.iter().enumerate() {
        if let SlotKind::Data { group, .. } = slot.kind {
            if members.len() <= group {
                members.resize(group + 1, Vec::new());
            }
            members[group].push(i);
        }
    }
    let r = layout.parity_r;
    let hits = n / 8;
    let mut lost_groups = (hits / 8).max(1);
    let mut single_groups = hits.saturating_sub(lost_groups * (r + 1));
    let mut hit = vec![false; n];
    let mut lost = Vec::new();
    let groups = members.len();
    let mut turn = 0;
    for i in 0..groups {
        members.swap(i, i + rng.below(groups - i));
        let loses = lost_groups > 0;
        if !loses && single_groups == 0 {
            break;
        }
        // Damaged members rotate through the shard slots, which lie in
        // successive stretches of the frame.
        let take = if loses { r + 1 } else { 1 };
        let group = &members[i];
        let pick: Vec<usize> = (0..take).map(|t| group[(turn + t) % group.len()]).collect();
        let taken = |k: usize| hit.get(k).copied().unwrap_or(false);
        let clear = |k: &usize| !taken(*k) && !taken(k + 1) && !k.checked_sub(1).is_some_and(taken);
        if take > group.len() || !pick.iter().all(clear) {
            continue;
        }
        for k in pick {
            hit[k] = true;
            if loses {
                lost.push(k);
            }
        }
        turn += take;
        if loses {
            lost_groups -= 1;
        } else {
            single_groups -= 1;
        }
    }
    let mut bytes = frame.to_vec();
    let mut segments = 0;
    for (slot, _) in layout.slots.iter().zip(&hit).filter(|(_, &h)| h) {
        let payload = slot.bytes.start + SEGMENT_HEADER_BYTES..slot.bytes.end;
        bytes[payload.start + rng.below(payload.len())] ^= 1 + rng.below(255) as u8;
        segments += 1;
    }
    lost.sort_unstable();
    let erased = lost
        .iter()
        .filter_map(|&k| match &layout.slots[k].kind {
            SlotKind::Data { trits, .. } => Some(trits.clone()),
            SlotKind::Parity => None,
        })
        .collect();
    Damage {
        bytes,
        segments,
        erased,
    }
}

/// A damaged copy of a frame and what its repair decode must return.
struct Damage {
    bytes: Vec<u8>,
    /// Damaged segments.
    segments: usize,
    /// Output ranges the repair decode must erase, in stream order.
    erased: Vec<Range<usize>>,
}

/// `clean` with `ranges` (sorted, disjoint) replaced by X.
fn erase(clean: &TritVec, ranges: &[Range<usize>]) -> TritVec {
    let mut out = TritVec::with_capacity(clean.len());
    let mut at = 0;
    for r in ranges {
        out.extend_from_slice(clean.slice_view(at, r.start));
        out.push_run(Trit::X, r.len());
        at = r.end;
    }
    out.extend_from_slice(clean.slice_view(at, clean.len()));
    out
}
