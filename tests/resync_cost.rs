//! Resynchronising past damage costs CRC work linear in the damaged span,
//! not in the payload sizes the damaged bytes happen to claim, in both
//! frame walkers: the plan build and the streaming reader. Proven through
//! the `ninec.frame.resync_probes` / `ninec.frame.resync_crc_bytes`
//! counters.
//!
//! One `#[test]` in its own integration-test binary, because the
//! [`ninec_obs`] registry is process global.

use ninec::engine::frame::{self, HEADER_BYTES, SEGMENT_HEADER_BYTES};
use ninec::engine::{FrameReader, StreamItem};
use ninec::{Engine, PlanEntry};
use ninec_obs::catalogue;

fn counters() -> (u64, u64) {
    (
        ninec_obs::counter(catalogue::FRAME_RESYNC_PROBES.name()).get(),
        ninec_obs::counter(catalogue::FRAME_RESYNC_CRC_BYTES.name()).get(),
    )
}

/// A v2 frame whose 64 KiB body holds a plausible data-segment header
/// every 64 bytes, each claiming a payload that runs to the end of the
/// frame, none with a valid CRC. The filler byte and the source-trit
/// field make every other position fail before its CRC check. Returns
/// the frame, the number of planted headers and the payload bytes they
/// claim in total.
fn hostile_frame() -> (Vec<u8>, usize, usize) {
    let mut bytes = Vec::new();
    frame::write_header(&mut bytes, [1, 2, 5, 5, 5, 5, 5, 5, 4], 1, 16);
    bytes.resize(HEADER_BYTES + (1 << 16), 0xAB);
    let (mut planted, mut claimed) = (0, 0);
    for at in (HEADER_BYTES..bytes.len() - SEGMENT_HEADER_BYTES).step_by(64) {
        let payload = bytes.len() - at - SEGMENT_HEADER_BYTES;
        let trits = u32::try_from(4 * payload).expect("small frame");
        bytes[at..at + 4].copy_from_slice(&[8, 0, 0, 0]);
        bytes[at + 4..at + 8].copy_from_slice(&[1; 4]);
        bytes[at + 8..at + 12].copy_from_slice(&trits.to_le_bytes());
        bytes[at + 12..at + 16].copy_from_slice(&[0; 4]);
        planted += 1;
        claimed += payload;
    }
    (bytes, planted, claimed)
}

#[test]
fn resync_crc_work_is_linear_in_the_damaged_span() {
    let (bytes, planted, claimed) = hostile_frame();
    let body = HEADER_BYTES..bytes.len();
    // Every position after the first is probed, up to the last one with
    // room for a segment header.
    let probes = (bytes.len() - SEGMENT_HEADER_BYTES - HEADER_BYTES) as u64;
    let engine = Engine::builder().threads(1).build();

    let before = counters();
    let plan = engine.build_plan(&bytes).expect("file header is intact");
    let after = counters();
    assert!(
        matches!(plan.entries(), [PlanEntry::Damaged { byte_range, .. }] if *byte_range == body),
        "one damaged range covering the body"
    );

    let mut reader = FrameReader::new(std::io::Cursor::new(bytes.clone()));
    match reader.next_item().expect("reads") {
        Some(StreamItem::Damaged { byte_range, .. }) => assert_eq!(byte_range, body),
        other => panic!("expected one damaged range, got {other:?}"),
    }
    assert!(reader.next_item().expect("reads").is_none());
    let streamed = counters();

    for (walker, (p, crc)) in [
        ("plan", (after.0 - before.0, after.1 - before.1)),
        ("reader", (streamed.0 - after.0, streamed.1 - after.1)),
    ] {
        assert_eq!(p, probes, "{walker} probes every position once");
        // Each planted claim reaches the end of the frame, so the index
        // folded the whole body: the counter sees the CRC work.
        assert!(crc >= body.len() as u64, "{walker} hashed only {crc}");
        // Linear: the body once into the prefix index, plus 12 header
        // bytes and at most two partial 64-byte strides per CRC check.
        let bound = (bytes.len() + planted * (12 + 2 * 64)) as u64;
        assert!(crc <= bound, "{walker} hashed {crc} > {bound}");
        // Checking each claim in full would have hashed far more.
        assert!(claimed as u64 > 50 * crc, "{walker}: {claimed} claimed");
    }
}
