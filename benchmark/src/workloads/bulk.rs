//! `bulk_sparse_k8` and `bulk_dense_k32`: a whole 16 M-trit test set
//! framed and unframed again, on one engine thread with v2 frames.
//!
//! The sparse set (X = 0.968, K = 8) spends its time classifying blocks
//! and decoding codewords — about 1% of halves are raw copies — so a
//! faster codeword decoder shows here. The dense set (X = 0.80, K = 32)
//! copies raw 16-trit halves for about a quarter of its halves and has a
//! quarter as many codewords per trit, so a codeword-only gain should
//! leave it unchanged while a faster half copy moves it. Sixteen
//! 1 Mi-trit segments keep plan, checksum and executor costs small in
//! both.

use std::time::Instant;

use super::{
    covers, end_to_end, fast_rate, flip, latency, metric, set_up, Checker, Layers, Opts, Run,
};
use crate::api::{self, Codec, Policy};
use crate::gen::{digest, Profile, SplitMix64};
use crate::stats::{median, Reservoir};
use crate::trace::Tracer;

pub struct Spec {
    profile: Profile,
    k: usize,
    segment_bits: usize,
}

impl Spec {
    pub fn sparse(tiny: bool) -> Spec {
        Spec::new(tiny, 0.968, 8)
    }

    pub fn dense(tiny: bool) -> Spec {
        Spec::new(tiny, 0.80, 32)
    }

    fn new(tiny: bool, x_density: f64, k: usize) -> Spec {
        let (patterns, len, segment_bits) = if tiny {
            (20, 2000, 4096)
        } else {
            (2000, 8000, 1 << 20)
        };
        Spec {
            profile: Profile::ckt1(patterns, len, x_density),
            k,
            segment_bits,
        }
    }
}

/// Engine threads: one, so the numbers are the codec's, not the
/// scheduler's.
const THREADS: usize = 1;

pub fn run(spec: Spec, opts: &Opts) -> api::Result<Run> {
    let src = spec.profile.generate(&mut SplitMix64::new(opts.seed, 1));
    let mut check = Checker::default();
    let ((codec, frame, mut clean), setup_s) = set_up(|| {
        let codec = Codec::new(spec.k, THREADS, spec.segment_bits, None);
        let frame = codec.encode_frame(&src)?;
        let clean = codec.decode_frame(&frame, Policy::Strict)?.trits;
        Ok((codec, frame, clean))
    })?;
    check.op(clean.len() == src.len() && covers(&clean, &src, 0), || {
        "decoded frame lost care bits".into()
    });
    if opts.corrupt {
        flip(&mut clean, 0);
    }

    let mut tr = Tracer::new(opts.trace);
    let mut layers = Layers::default();
    let (mut enc, mut dec) = (Reservoir::new(opts.seed), Reservoir::new(opts.seed));
    // Traced run only: untraced decodes under three obs settings —
    // default, flight recorder off, all obs runtime off.
    let mut plain: [Vec<f64>; 3] = Default::default();
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
            layers.decode(&mut tr, &codec, &frame, Policy::Strict)
        } else {
            codec.decode_frame(&frame, Policy::Strict)
        };
        dec.push(t.elapsed().as_secs_f64());
        if let Some(d) = check.call("decode_frame", decoded) {
            check.op(d.trits == clean, || "decode_frame output differs".into());
        }
        if opts.trace {
            layers.probe(&mut tr, &mut check, &codec, &src, &frame, &clean);
            let mode = enc.seen() % 3;
            api::set_flight_recorder(mode != 1);
            api::set_obs_runtime(mode != 2);
            let t = Instant::now();
            let decoded = codec.decode_frame(&frame, Policy::Strict);
            plain[mode].push(t.elapsed().as_secs_f64());
            api::set_flight_recorder(true);
            api::set_obs_runtime(true);
            if let Some(d) = check.call("decode_frame", decoded) {
                check.op(d.trits == clean, || "decode_frame output differs".into());
            }
        }
    }

    let mut extras = vec![
        metric("input.trits", src.len() as f64, "count"),
        metric("input.x_pct", src.x_density() * 100.0, "%"),
        metric("iterations", enc.seen() as f64, "count"),
    ];
    extras.extend(latency("encode_frame", &enc));
    extras.extend(latency("decode_frame", &dec));
    let metrics = if opts.trace {
        let (layer_metrics, more) = layers.metrics(&tr);
        extras.extend(more);
        let pct = |a: &[f64], b: &[f64]| (median(a) / median(b) - 1.0) * 100.0;
        extras.push(metric(
            "bench.trace_overhead_pct",
            pct(&dec, &plain[0]),
            "%",
        ));
        extras.push(metric(
            "obs.trace_overhead_pct",
            pct(&plain[0], &plain[1]),
            "%",
        ));
        extras.push(metric(
            "obs.metrics_overhead_pct",
            pct(&plain[1], &plain[2]),
            "%",
        ));
        layer_metrics
    } else {
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
