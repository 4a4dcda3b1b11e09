//! Proves the "one scan pass" claim end to end via the
//! `ninec.frame.scan_passes` counter: building one [`FramePlan`] and
//! driving the *entire* strict → repair → salvage ladder against it
//! costs exactly one header/CRC scan of the frame. The same runs pin the
//! recovery counters: CRC failures, salvaged segments, repair failures
//! and limit rejections each tick by exactly what their input earns,
//! `ninec.engine.segments` by the jobs the executor ran, and the
//! `ninec.decode.*` counters by the segments, blocks and trits a clean
//! decode moved. Further tests pin what `encode_frame` publishes, what
//! `ninec.ecc.repaired_segments` counts, that a warm data-plane call
//! makes no registry lookup, and that a multi-threaded decode's trace
//! events are all recorded when it returns.
//!
//! The [`ninec_obs`] registry is process global, so this file is its own
//! integration-test binary and its tests take [`REGISTRY`] in turn: no
//! other decode perturbs the deltas.
//!
//! [`FramePlan`]: ninec::FramePlan

use ninec::engine::frame::SEGMENT_HEADER_BYTES;
use ninec::engine::{Archive, DecodeLimits, FrameReader};
use ninec::session::DecodeSession;
use ninec::{Engine, PlanEntry, Policy};
use ninec_obs::catalogue;
use ninec_testdata::gen::SyntheticProfile;
use std::sync::Mutex;

/// Held by each test for its whole run, so the deltas are its own.
static REGISTRY: Mutex<()> = Mutex::new(());

/// The counters this suite pins, read together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    scan_passes: u64,
    crc_failures: u64,
    limit_rejections: u64,
    salvaged_segments: u64,
    repair_failures: u64,
}

impl Counts {
    fn now() -> Self {
        let get = |name| ninec_obs::counter(name).get();
        Counts {
            scan_passes: get(catalogue::FRAME_SCAN_PASSES.name()),
            crc_failures: get(catalogue::FRAME_CRC_FAILURES.name()),
            limit_rejections: get(catalogue::FRAME_LIMIT_REJECTIONS.name()),
            salvaged_segments: get(catalogue::ENGINE_SALVAGED_SEGMENTS.name()),
            repair_failures: get(catalogue::ECC_REPAIR_FAILURES.name()),
        }
    }

    /// What each counter gained since `before`.
    fn since(before: Counts) -> Counts {
        let now = Counts::now();
        Counts {
            scan_passes: now.scan_passes - before.scan_passes,
            crc_failures: now.crc_failures - before.crc_failures,
            limit_rejections: now.limit_rejections - before.limit_rejections,
            salvaged_segments: now.salvaged_segments - before.salvaged_segments,
            repair_failures: now.repair_failures - before.repair_failures,
        }
    }
}

/// `clean` with the first payload byte of each listed data segment
/// flipped.
fn damage(clean: &[u8], data: &[std::ops::Range<usize>], segments: &[usize]) -> Vec<u8> {
    let mut bytes = clean.to_vec();
    for &i in segments {
        bytes[data[i].start + SEGMENT_HEADER_BYTES] ^= 0x55;
    }
    bytes
}

#[test]
fn whole_ladder_costs_one_scan_pass() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    // A damaged v3 frame: strict fails, repair rebuilds it bit-exact.
    let set = SyntheticProfile::new("scanpass", 24, 64, 0.72).generate(5);
    let engine = Engine::builder()
        .threads(2)
        .segment_bits(256)
        .parity(2, 1)
        .build();
    let clean = engine
        .encode_frame(8, set.as_stream())
        .expect("frame encodes");
    let strict_reference = engine.decode_frame(&clean).expect("clean frame decodes");
    let plan = engine.build_plan(&clean).expect("clean frame plans");
    let groups = plan.groups();
    let data: Vec<_> = plan
        .entries()
        .iter()
        .filter_map(|e| match e {
            PlanEntry::Data { byte_range, .. } => Some(byte_range.clone()),
            _ => None,
        })
        .collect();
    drop(plan);

    // One damaged data segment, first or last. Damage to the last one
    // makes the scan CRC the whole frame before it finds the damage —
    // the worst case for the shared scan.
    for (which, segment) in [("first", 0), ("last", data.len() - 1)] {
        let damaged = damage(&clean, &data, &[segment]);
        // The plan pipeline: ONE scan pass for the whole ladder.
        let before = Counts::now();
        let plan = engine.build_plan(&damaged).expect("plan builds");
        let strict = engine.execute_plan(&plan, Policy::Strict);
        let repair = engine.execute_plan(&plan, Policy::Repair);
        let salvage = engine.execute_plan(&plan, Policy::Salvage);
        let delta = Counts::since(before);
        // One damaged range fails its CRC once. The repair rung counts
        // every segment it returns, the rebuilt one included, and the
        // salvage rung counts the intact ones.
        let expected = Counts {
            scan_passes: 1,
            crc_failures: 1,
            limit_rejections: 0,
            salvaged_segments: 2 * data.len() as u64 - 1,
            repair_failures: 0,
        };
        assert_eq!(
            delta, expected,
            "{which}: plan ladder must scan the frame exactly once"
        );
        // ...and the rungs behaved like the real ladder while doing it.
        assert!(
            strict.is_err(),
            "{which}: strict must fail on the damaged segment"
        );
        let repair = repair.expect("repair rung runs");
        assert!(repair.is_full_recovery(), "{which}");
        assert_eq!(repair.trits, strict_reference, "{which}");
        let salvage = salvage.expect("salvage rung runs");
        assert!(!salvage.is_full_recovery(), "{which}");
    }

    // Over budget: two damaged data segments of one interleaved group
    // (segment i is in group i mod G) beat r = 1, so repair gives up on
    // both and the ladder falls through to salvage.
    let over = damage(&clean, &data, &[0, groups]);
    let before = Counts::now();
    let report = DecodeSession::new()
        .decode_frame(&over, Policy::Repair)
        .expect("file headers intact");
    let delta = Counts::since(before);
    assert!(
        !report.report.expect("damage reported").is_full_recovery(),
        "over-budget damage must not fully repair"
    );
    let expected = Counts {
        scan_passes: 1,
        crc_failures: 2,
        limit_rejections: 0,
        salvaged_segments: data.len() as u64 - 2,
        repair_failures: 2,
    };
    assert_eq!(delta, expected, "over-budget ladder");

    // A hostile limit: no segment may hold more than one trit, so the
    // public decode path rejects the intact frame before decoding it.
    let hostile = DecodeLimits {
        max_segment_trits: 1,
        ..DecodeLimits::default()
    };
    let before = Counts::now();
    let rejected = DecodeSession::new()
        .limits(hostile)
        .decode_frame(&clean, Policy::Strict);
    let delta = Counts::since(before);
    assert!(
        matches!(rejected, Err(ninec::DecodeError::LimitExceeded { .. })),
        "hostile limit must reject the frame: {rejected:?}"
    );
    let expected = Counts {
        scan_passes: 1,
        crc_failures: 0,
        limit_rejections: 1,
        salvaged_segments: 0,
        repair_failures: 0,
    };
    assert_eq!(delta, expected, "hostile limit");
}

/// Every executor worker, the calling thread included, counts the jobs
/// it completes, so a clean strict decode adds exactly the frame's
/// data-segment count to `ninec.engine.segments` at any thread count.
#[test]
fn engine_segments_count_every_decoded_segment() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let set = SyntheticProfile::new("segments", 24, 64, 0.72).generate(7);
    for threads in [1usize, 2] {
        let engine = Engine::builder()
            .threads(threads)
            .segment_bits(256)
            .parity(2, 1)
            .build();
        let frame = engine
            .encode_frame(8, set.as_stream())
            .expect("frame encodes");
        let plan = engine.build_plan(&frame).expect("clean frame plans");
        let data = plan
            .entries()
            .iter()
            .filter(|e| matches!(e, PlanEntry::Data { .. }))
            .count() as u64;
        assert!(data > 2, "the frame must span several segments");
        let segments = || ninec_obs::counter(catalogue::ENGINE_SEGMENTS.name()).get();
        let before = segments();
        engine.decode_frame(&frame).expect("clean frame decodes");
        assert_eq!(segments() - before, data, "threads={threads}");
    }
}

/// A clean strict decode publishes one `ninec.decode.*` run per data
/// segment, one block per `K` source trits (the encoder's pad rounds
/// the last block up), every payload trit read and every source trit
/// written — at any thread count.
#[test]
fn decode_counters_count_runs_blocks_bits_and_symbols() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    // 1,525 trits: the last segment ends in a padded block.
    let set = SyntheticProfile::new("decode", 25, 61, 0.72).generate(9);
    let counts = || {
        [
            catalogue::DECODE_RUNS.name(),
            catalogue::DECODE_BLOCKS.name(),
            catalogue::DECODE_BITS_IN.name(),
            catalogue::DECODE_SYMBOLS_OUT.name(),
        ]
        .map(|name| ninec_obs::counter(name).get())
    };
    for threads in [1usize, 2] {
        let engine = Engine::builder()
            .threads(threads)
            .segment_bits(256)
            .parity(2, 1)
            .build();
        let frame = engine
            .encode_frame(6, set.as_stream())
            .expect("frame encodes");
        let plan = engine.build_plan(&frame).expect("clean frame plans");
        let mut expected = [0u64, 0, 0, plan.source_len() as u64];
        for entry in plan.entries() {
            if let PlanEntry::Data { seg, .. } = entry {
                expected[0] += 1;
                expected[1] += seg.source_trits.div_ceil(seg.k) as u64;
                expected[2] += seg.payload_trits as u64;
            }
        }
        assert!(expected[0] > 2, "the frame must span several segments");
        let before = counts();
        let trits = engine.decode_frame(&frame).expect("clean frame decodes");
        assert_eq!(trits.len(), plan.source_len());
        let after = counts();
        let delta: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
        assert_eq!(
            delta, expected,
            "threads={threads}: [runs, blocks, bits_in, symbols_out]"
        );
    }
}

/// One `encode_frame` records one `ninec.engine.segment.encode_ns`
/// sample per data segment, and publishes only the encodes the frame
/// keeps: a best-K frame's `ninec.encode.blocks` gain is its chosen
/// segments' blocks, not its sizing passes' too.
#[test]
fn encode_frame_publishes_only_the_encodes_it_keeps() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let set = SyntheticProfile::new("encodes", 40, 250, 0.8).generate(3);
    let samples = || ninec_obs::histogram(catalogue::ENGINE_SEG_ENCODE_NS.name()).count();
    let blocks = || ninec_obs::counter(catalogue::ENCODE_BLOCKS.name()).get();
    for threads in [1usize, 3] {
        let engine = Engine::builder()
            .threads(threads)
            .segment_bits(256)
            .parity(4, 1)
            .build();
        for candidates in [&[8usize][..], &[8, 16, 32]] {
            let before = (samples(), blocks());
            let frame = engine
                .encode_frame_best_k(candidates, set.as_stream())
                .expect("frame encodes");
            let delta = (samples() - before.0, blocks() - before.1);
            let plan = engine.build_plan(&frame).expect("clean frame plans");
            let (mut data, mut chosen_blocks) = (0u64, 0u64);
            for entry in plan.entries() {
                if let PlanEntry::Data { seg, .. } = entry {
                    data += 1;
                    chosen_blocks += seg.source_trits.div_ceil(seg.k) as u64;
                }
            }
            assert!(data > 2, "the frame must span several segments");
            assert_eq!(
                delta,
                (data, chosen_blocks),
                "threads={threads} candidates={candidates:?}: [samples, blocks]"
            );
        }
    }
}

/// `ninec.ecc.repaired_segments` counts the segments a repair report
/// keeps as repaired: a rebuild past the header's source-length total is
/// erased and does not count, a kept one does.
#[test]
fn repaired_segments_counts_the_reports_repairs() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let repaired = || ninec_obs::counter(catalogue::ECC_REPAIRED_SEGMENTS.name()).get();
    let set = SyntheticProfile::new("rung", 10, 80, 0.72).generate(3);
    let stream = set.as_stream();
    let engine = Engine::builder()
        .threads(1)
        .segment_bits(64)
        .parity(2, 1)
        .build();
    let frame = engine.encode_frame(8, stream).expect("frame encodes");
    let data_range = |bytes: &[u8], i: usize| {
        engine.build_plan(bytes).expect("frame plans").entries()[i].byte_range()
    };
    // `bytes` with the first payload byte of data segment `i` flipped.
    let flip = |bytes: &[u8], i: usize| damage(bytes, &[data_range(bytes, i)], &[0]);

    // One damaged data segment: rebuilt and kept.
    let bad = flip(&frame, 3);
    let before = repaired();
    let report = engine
        .build_plan(&bad)
        .and_then(|plan| engine.execute_plan(&plan, Policy::Repair))
        .expect("repair rung runs");
    assert_eq!(report.repaired_segments(), 1);
    assert_eq!(repaired() - before, 1, "one kept rebuild");

    // Data segment 0 swapped for a CRC-valid 128-trit segment, so the
    // rebuild of damaged segment 12 has no trits left to cover.
    let wide = Engine::builder()
        .threads(1)
        .segment_bits(128)
        .build()
        .encode_frame(8, stream)
        .expect("frame encodes");
    let (seg0, wide0) = (data_range(&frame, 0), data_range(&wide, 0));
    let spliced = [&frame[..seg0.start], &wide[wide0], &frame[seg0.end..]].concat();
    let bad = flip(&spliced, 12);
    let before = repaired();
    let report = engine
        .build_plan(&bad)
        .and_then(|plan| engine.execute_plan(&plan, Policy::Repair))
        .expect("repair rung runs");
    assert_eq!(report.repaired_segments(), 0);
    assert_eq!(repaired() - before, 0, "an erased rebuild");
}

/// A spawned executor worker's trace events reach the global recorder
/// before the decode returns: the same audited 3-thread repair records
/// the same number of events every time, and its audit names the worker
/// of every segment it decoded.
#[test]
fn worker_trace_events_land_before_the_decode_returns() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let set = SyntheticProfile::new("flush", 40, 250, 0.8).generate(5);
    let engine = Engine::builder()
        .threads(3)
        .segment_bits(256)
        .parity(4, 1)
        .build();
    let clean = engine
        .encode_frame(8, set.as_stream())
        .expect("frame encodes");
    let data: Vec<_> = engine
        .build_plan(&clean)
        .expect("clean frame plans")
        .entries()
        .iter()
        .filter_map(|e| match e {
            PlanEntry::Data { byte_range, .. } => Some(byte_range.clone()),
            _ => None,
        })
        .collect();
    let bad = damage(&clean, &data, &[0, 5, 13]);
    let session = DecodeSession::new().threads(3).audit(true);
    let mut counts = Vec::new();
    for _ in 0..30 {
        let outcome = session
            .decode_frame(&bad, Policy::Repair)
            .expect("file headers intact");
        let audit = outcome.audit.expect("audited decode");
        counts.push(
            ninec_obs::snapshot_trace()
                .iter()
                .filter(|e| e.trace == audit.trace)
                .count(),
        );
        let unattributed: Vec<usize> = audit
            .segments
            .iter()
            .filter(|s| s.rung.label() != "salvaged" && s.worker.is_none())
            .map(|s| s.index)
            .collect();
        assert!(
            unattributed.is_empty(),
            "decoded segments without a worker: {unattributed:?}"
        );
    }
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "events per decode: {counts:?}"
    );
}

/// A warm call makes no registry lookup: every metric and span it
/// publishes kept the handle it resolved on an earlier call. Counted
/// with `Registry::lookups` around a repeat of each data-plane call, at
/// 1 and 3 threads. A worker's busy-time cell resolves when that worker
/// first completes a job, which at 3 threads may be a later call than
/// the first, so a larger `encode_frame` first runs until every worker
/// has.
#[test]
fn a_warm_call_makes_no_registry_lookup() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let set = SyntheticProfile::new("warm", 40, 250, 0.8).generate(13);
    let stream = set.as_stream();
    let large = SyntheticProfile::new("warm", 400, 250, 0.8).generate(13);
    let dir = std::env::temp_dir().join(format!("ninec_warm_lookups_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for threads in [1usize, 3] {
        let engine = Engine::builder()
            .threads(threads)
            .segment_bits(256)
            .parity(4, 1)
            .build();
        let frame = engine.encode_frame(8, stream).expect("frame encodes");
        let data: Vec<_> = engine
            .build_plan(&frame)
            .expect("clean frame plans")
            .entries()
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Data { byte_range, .. } => Some(byte_range.clone()),
                _ => None,
            })
            .collect();
        let damaged = damage(&frame, &data, &[1]);
        let session = DecodeSession::new().threads(threads);
        let mut archive =
            Archive::create(dir.join(format!("t{threads}.9ca")), &engine).expect("archive creates");
        archive.append_frame(&frame).expect("frame appends");
        let every_worker_busy = || {
            let counters = ninec_obs::snapshot().counters;
            (0..threads).all(|w| {
                let name = catalogue::worker_busy_ns_name(w);
                counters.iter().any(|(n, _)| *n == name)
            })
        };
        let mut tries = 0;
        while !every_worker_busy() {
            assert!(
                tries < 100,
                "threads={threads}: a worker never claimed a job"
            );
            engine
                .encode_frame(8, large.as_stream())
                .expect("frame encodes");
            tries += 1;
        }
        let calls: [(&str, &dyn Fn()); 6] = [
            ("encode_frame", &|| {
                engine.encode_frame(8, stream).expect("frame encodes");
            }),
            ("Engine::encode", &|| {
                engine.encode(8, stream).expect("valid K");
            }),
            ("strict decode_frame", &|| {
                session
                    .decode_frame(&frame, Policy::Strict)
                    .expect("clean frame decodes");
            }),
            ("repair decode_frame", &|| {
                session
                    .decode_frame(&damaged, Policy::Repair)
                    .expect("file headers intact");
            }),
            ("decode_stream_reader", &|| {
                engine
                    .decode_stream_reader(&mut FrameReader::new(std::io::Cursor::new(&frame)))
                    .expect("clean frame streams");
            }),
            ("decode_range", &|| {
                archive.decode_range(0, 300, 2_000).expect("range decodes");
            }),
        ];
        for (name, call) in calls {
            call();
            let before = ninec_obs::global().lookups();
            call();
            assert_eq!(
                ninec_obs::global().lookups() - before,
                0,
                "threads={threads}: a second {name} looked a metric up by name"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
