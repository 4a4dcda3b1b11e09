//! Proves the "one scan pass" claim end to end via the
//! `ninec.frame.scan_passes` counter: building one [`FramePlan`] and
//! driving the *entire* strict → repair → salvage ladder against it
//! costs exactly one header/CRC scan of the frame. The same runs pin the
//! recovery counters: CRC failures, salvaged segments, repair failures
//! and limit rejections each tick by exactly what their input earns, and
//! `ninec.engine.segments` by the jobs the executor ran.
//!
//! The [`ninec_obs`] registry is process global, so this file is its own
//! integration-test binary and its tests take [`REGISTRY`] in turn: no
//! other decode perturbs the deltas.
//!
//! [`FramePlan`]: ninec::FramePlan

use ninec::engine::frame::SEGMENT_HEADER_BYTES;
use ninec::engine::DecodeLimits;
use ninec::session::DecodeSession;
use ninec::{metrics, Engine, PlanEntry, Policy};
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
            scan_passes: get(metrics::FRAME_SCAN_PASSES),
            crc_failures: get(metrics::FRAME_CRC_FAILURES),
            limit_rejections: get(metrics::FRAME_LIMIT_REJECTIONS),
            salvaged_segments: get(metrics::ENGINE_SALVAGED_SEGMENTS),
            repair_failures: get(metrics::ECC_REPAIR_FAILURES),
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
        let segments = || ninec_obs::counter(metrics::ENGINE_SEGMENTS).get();
        let before = segments();
        engine.decode_frame(&frame).expect("clean frame decodes");
        assert_eq!(segments() - before, data, "threads={threads}");
    }
}
