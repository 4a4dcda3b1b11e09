//! Golden Chrome-trace test: a fixed seeded decode of a corrupted v3
//! parity frame must produce a byte-stable trace-event document once
//! [`ninec_obs::normalize_trace`] strips the run-dependent fields
//! (timestamps, global sequence numbers, id allocation order).
//!
//! Regenerate after an intentional event-shape change with
//! `OBS_BLESS=1 cargo test --test trace_golden`.

use ninec::engine::frame;
use ninec::session::DecodeSession;
use ninec::Engine;
use ninec_testdata::gen::SyntheticProfile;
use std::path::PathBuf;

fn check_golden(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("OBS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {name} ({e}); run with OBS_BLESS=1"));
    assert_eq!(rendered, expected, "golden mismatch for {name}");
}

#[test]
fn seeded_decode_chrome_trace_matches_golden() {
    // Deterministic input: seeded synthetic set, serial engine, one
    // corrupted payload byte that the 4:1 parity group rebuilds.
    let set = SyntheticProfile::new("trace", 24, 64, 0.72).generate(9);
    let engine = Engine::builder()
        .threads(1)
        .segment_bits(256)
        .parity(4, 1)
        .build();
    let mut bytes = engine
        .encode_frame(8, set.as_stream())
        .expect("golden frame encodes");
    bytes[frame::HEADER_BYTES_V3 + frame::SEGMENT_HEADER_BYTES] ^= 0x55;

    let _ = ninec_obs::take_trace(); // drain unrelated leftovers
    let session = DecodeSession::new().threads(1).audit(true);
    let outcome = session
        .decode_frame(&bytes, ninec::Policy::Repair)
        .expect("frame repairs");
    assert_eq!(outcome.rung, ninec::RungKind::Repaired);
    let audit = outcome.audit.expect("audited decode attaches the rollup");

    let mut events: Vec<_> = ninec_obs::take_trace()
        .into_iter()
        .filter(|e| e.trace == audit.trace)
        .collect();
    assert!(!events.is_empty(), "audited decode recorded no events");
    ninec_obs::normalize_trace(&mut events);

    check_golden(
        "decode_trace.json",
        &ninec_obs::render_chrome_trace(&events),
    );
    check_golden("decode_trace.jsonl", &ninec_obs::render_jsonl(&events));
}
