//! Proves the "one scan pass" claim end to end via the
//! `ninec.frame.scan_passes` counter: building one [`FramePlan`] and
//! driving the *entire* strict → repair → salvage ladder against it
//! costs exactly one header/CRC scan of the frame.
//!
//! Everything lives in one `#[test]` because the [`ninec_obs`] registry
//! is process global — this file is its own integration-test binary so
//! no other test perturbs the deltas.
//!
//! [`FramePlan`]: ninec::FramePlan

use ninec::{metrics, Engine, Policy};
use ninec_testdata::gen::SyntheticProfile;

fn scan_passes() -> u64 {
    ninec_obs::counter(metrics::FRAME_SCAN_PASSES).get()
}

#[test]
fn whole_ladder_costs_one_scan_pass() {
    if !ninec_obs::is_compiled() {
        return;
    }
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
    let mut damaged = clean.clone();
    damaged[ninec::engine::frame::HEADER_BYTES_V3 + ninec::engine::frame::SEGMENT_HEADER_BYTES] ^=
        0x55;

    // The plan pipeline: ONE scan pass for the whole ladder.
    let before = scan_passes();
    let plan = engine.build_plan(&damaged).expect("plan builds");
    let strict = engine.execute_plan(&plan, Policy::Strict);
    let repair = engine.execute_plan(&plan, Policy::Repair);
    let salvage = engine.execute_plan(&plan, Policy::Salvage);
    let plan_passes = scan_passes() - before;
    assert_eq!(
        plan_passes, 1,
        "plan ladder must scan the frame exactly once"
    );
    // ...and the rungs behaved like the real ladder while doing it.
    assert!(strict.is_err(), "strict must fail on the damaged segment");
    let repair = repair.expect("repair rung runs");
    assert!(repair.is_full_recovery());
    assert_eq!(repair.trits, strict_reference);
    let salvage = salvage.expect("salvage rung runs");
    assert!(!salvage.is_full_recovery());
}
