//! `archive_rw`: appends beside random-access reads on a `.9ca` archive.
//!
//! Each round appends one 256 Ki-trit v3 frame — every other one repeats
//! earlier content, so dedup has work — and then reads 64 seeded
//! 512-trit ranges from any frame appended so far. After 64 rounds a
//! read-only scrub walks every segment, every frame is extracted and
//! compared with what was appended, and the archive is replaced by a
//! fresh one, so every 64-round generation does the same work however
//! long the run. The program's fsync per append is kept. A generation's
//! store is a few MiB, well inside the page cache: reads measure the
//! decode path, not the disk.

use std::time::Instant;

use super::{
    covers, end_to_end, fast_rate, latency, metric, set_up, Checker, Layers, Opts, Run, ScratchDir,
};
use crate::api::{self, Codec, Policy, Store};
use crate::gen::{digest, mix, Profile, SplitMix64};
use crate::stats::Reservoir;
use crate::trace::Tracer;
use ninec_testdata::trit::TritVec;

const K: usize = 8;
const PARITY: (u8, u8) = (4, 1);
const THREADS: usize = 1;

struct Spec {
    profile: Profile,
    segment_bits: usize,
    rounds: usize,
    ranges: usize,
    range_len: usize,
}

impl Spec {
    fn new(tiny: bool) -> Spec {
        if tiny {
            Spec {
                profile: Profile::ckt1(4, 2048, 0.90),
                segment_bits: 512,
                rounds: 8,
                ranges: 4,
                range_len: 64,
            }
        } else {
            Spec {
                profile: Profile::ckt1(32, 8192, 0.90),
                segment_bits: 4096,
                rounds: 64,
                ranges: 64,
                range_len: 512,
            }
        }
    }
}

pub fn run(opts: &Opts) -> api::Result<Run> {
    let spec = Spec::new(opts.tiny);
    let frame_trits = spec.profile.total();
    let mut rng = SplitMix64::new(opts.seed, 1);
    let distinct: Vec<TritVec> = (0..spec.rounds / 2)
        .map(|_| spec.profile.generate(&mut rng))
        .collect();
    let dir = ScratchDir::new(opts, "archive")?;
    let path = dir.path().join("bench.9ca");
    let fresh = |codec: &Codec| {
        for f in Store::files(&path) {
            let _ = std::fs::remove_file(f);
        }
        Store::create(&path, codec)
    };

    let mut check = Checker::default();
    let ((codec, frames, mut store), setup_s) = set_up(|| {
        let codec = Codec::new(K, THREADS, spec.segment_bits, Some(PARITY));
        let frames = distinct
            .iter()
            .map(|src| codec.encode_frame(src))
            .collect::<api::Result<Vec<_>>>()?;
        let mut store = fresh(&codec)?;
        store.append(&frames[0])?;
        store.range(0, 0, spec.range_len)?;
        store.scrub_check()?;
        let store = fresh(&codec)?;
        Ok((codec, frames, store))
    })?;
    // What every extract must give back.
    let mut expected = frames.clone();
    if opts.corrupt {
        expected[0][0] ^= 1;
    }
    // The traced run probes each distinct frame's core layers once per
    // generation, checked against its clean decode.
    let cleans: Vec<TritVec> = if opts.trace {
        frames
            .iter()
            .map(|f| codec.decode_frame(f, Policy::Strict).map(|d| d.trits))
            .collect::<api::Result<_>>()?
    } else {
        Vec::new()
    };

    let mut tr = Tracer::new(opts.trace);
    let mut layers = Layers::default();
    let mut order = SplitMix64::new(opts.seed, 3);
    let (mut appends, mut ranges) = (Reservoir::new(opts.seed), Reservoir::new(opts.seed));
    let mut scrubs = Vec::new();
    let (mut segments, mut dedup_hits, mut scrubbed_bytes, mut scrubbed_segments) = (0, 0, 0, 0);
    let mut stored_bits_per_trit = None;
    let mut appended: Vec<usize> = Vec::new();
    let start = Instant::now();
    loop {
        let round = appended.len();
        let content = if round.is_multiple_of(2) {
            round / 2
        } else {
            order.below(round / 2 + 1)
        };
        appended.push(content);
        let t = Instant::now();
        let receipt = tr.span("core.engine.archive.append", |_| {
            store.append(&frames[content])
        });
        appends.push(t.elapsed().as_secs_f64());
        if let Some(r) = check.call("append_frame", receipt) {
            // A repeated frame's segments are all stored already.
            let repeat = !round.is_multiple_of(2);
            check.op(!repeat || r.dedup_hits == r.segments as u64, || {
                format!("round {round} repeated a frame but stored new blobs")
            });
            segments += r.segments;
            dedup_hits += r.dedup_hits;
        }
        for _ in 0..spec.ranges {
            let frame = order.below(appended.len());
            let at = order.below(frame_trits - spec.range_len + 1);
            let t = Instant::now();
            let got = tr.span("core.engine.archive.range", |_| {
                store.range(frame, at, spec.range_len)
            });
            ranges.push(t.elapsed().as_secs_f64());
            if let Some(got) = check.call("decode_range", got) {
                let want = distinct[appended[frame]].slice(at, at + spec.range_len);
                check.op(got.len() == want.len() && covers(&got, &want, 0), || {
                    format!(
                        "range {at}+{} of frame {frame} lost care bits",
                        spec.range_len
                    )
                });
            }
        }
        if opts.trace && round.is_multiple_of(2) {
            let (src, frame) = (&distinct[content], &frames[content]);
            let decoded = layers.decode(&mut tr, &codec, frame, Policy::Strict);
            if let Some(d) = check.call("decode_frame", decoded) {
                check.op(d.trits == cleans[content], || "decode_frame differs".into());
            }
            layers.probe(&mut tr, &mut check, &codec, src, frame, &cleans[content]);
        }
        let done = start.elapsed().as_secs_f64() >= opts.seconds;
        if appended.len() == spec.rounds || done {
            let bytes = store.stored_bytes();
            let t = Instant::now();
            let scrub = tr.span("core.engine.scrub", |_| store.scrub_check());
            scrubs.push(t.elapsed().as_secs_f64());
            if let Some((clean, walked)) = check.call("scrub", scrub) {
                check.op(clean, || "scrub found damage in a clean archive".into());
                scrubbed_bytes += bytes;
                scrubbed_segments += walked;
            }
            for (i, &c) in appended.iter().enumerate() {
                let got = tr.span("core.engine.archive.extract", |_| store.extract(i));
                if let Some(got) = check.call("extract_frame", got) {
                    check.op(got == expected[c], || {
                        format!("extracted frame {i} differs")
                    });
                }
            }
            stored_bits_per_trit
                .get_or_insert(bytes as f64 * 8.0 / (appended.len() * frame_trits) as f64);
            if done {
                break;
            }
            store = fresh(&codec)?;
            appended.clear();
        }
    }

    let scrub_secs: f64 = scrubs.iter().sum();
    let mut extras = vec![
        metric("rounds", appends.seen() as f64, "count"),
        metric(
            "core.engine.archive.dedup_hit_pct",
            dedup_hits as f64 * 100.0 / segments.max(1) as f64,
            "%",
        ),
        metric(
            "core.engine.scrub.mib_s",
            scrubbed_bytes as f64 / (1024.0 * 1024.0) / scrub_secs,
            "MiB/s",
        ),
        metric(
            "core.engine.scrub.ns_per_segment",
            scrub_secs * 1e9 / scrubbed_segments.max(1) as f64,
            "ns",
        ),
    ];
    extras.extend(latency("core.engine.archive.append", &appends));
    extras.extend(latency("core.engine.archive.range", &ranges));
    extras.extend(latency("core.engine.scrub", &scrubs));
    let metrics = if opts.trace {
        let (layer_metrics, more) = layers.metrics(&tr);
        extras.extend(more);
        layer_metrics
    } else {
        end_to_end([
            ("setup_s", setup_s),
            ("peak_rss_mib", super::peak_rss_mib()),
            (
                "stored_bits_per_trit",
                stored_bits_per_trit.unwrap_or(f64::NAN),
            ),
            ("write_mbit_s", fast_rate(frame_trits, &appends)),
            ("read_mbit_s", fast_rate(spec.range_len, &ranges)),
        ])
    };
    Ok(Run {
        metrics,
        extras,
        check,
        input_digest: distinct.iter().fold(0, |h, t| mix(h, digest(t))),
        tracer: tr,
    })
}
