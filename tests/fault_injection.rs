//! Deterministic fault-injection harness for the `9CSF` decode subsystem.
//!
//! Three layers of attack, all asserting the same *trichotomy*: for any
//! mutated frame, decoding must either (a) reproduce the original stream,
//! (b) return a typed error, or (c) — in salvage mode — return a
//! [`SalvageReport`] whose damage map accurately covers the mutation.
//! Never a panic, never a hang, never an allocation past [`DecodeLimits`].
//!
//! 1. an **exhaustive single-fault sweep**: every byte of a golden frame
//!    × {each of the 8 bit flips, zero, 0xFF} plus truncation at every
//!    length;
//! 2. **proptest multi-fault campaigns**: random byte salads, multi-site
//!    corruption, and segment-level splicing (drop / duplicate / swap);
//! 3. a committed **corpus of nasty frames** (`tests/corpus/*.9cf`) —
//!    allocation bombs, forged expansion headers, bad CRCs — replayed on
//!    every run (regenerate with `CORPUS_BLESS=1`).
//!
//! With the `failpoints` feature the suite also forces worker panics,
//! delays and torn writes *inside* the pool via
//! [`ninec::engine::faultpoint`] and checks panic isolation at 1 and 8
//! threads.

use ninec::engine::frame::{self, DecodeLimits, HEADER_BYTES, SEGMENT_HEADER_BYTES};
use ninec::engine::{Engine, SalvageReport};
use ninec::session::DecodeSession;
use ninec::{DecodeError, FrameError, PlanEntry, Policy};
use ninec_testdata::gen::SyntheticProfile;
use ninec_testdata::trit::{Trit, TritVec};
use proptest::prelude::*;

/// A small multi-segment golden frame plus its source stream.
fn golden(seed: u64) -> (TritVec, Vec<u8>) {
    let set = SyntheticProfile::new("fault", 24, 64, 0.72).generate(seed);
    let stream = set.as_stream().clone();
    let frame = engine(1)
        .encode_frame(8, &stream)
        .expect("golden frame encodes");
    (stream, frame)
}

fn engine(threads: usize) -> Engine {
    Engine::builder().threads(threads).segment_bits(256).build()
}

/// The salvage rung on a fresh plan of `bytes`.
fn salvage(engine: &Engine, bytes: &[u8]) -> Result<SalvageReport, DecodeError> {
    engine
        .build_plan(bytes)
        .and_then(|plan| engine.execute_plan(&plan, Policy::Salvage))
}

/// The repair rung on a fresh plan of `bytes`.
fn repair(engine: &Engine, bytes: &[u8]) -> Result<SalvageReport, DecodeError> {
    engine
        .build_plan(bytes)
        .and_then(|plan| engine.execute_plan(&plan, Policy::Repair))
}

/// Care-bit-compatible equality: every care bit of `a` survives in `b`.
fn covers(a: &TritVec, b: &TritVec) -> bool {
    a.len() == b.len()
        && (0..a.len()).all(|i| match a.get(i) {
            Some(t) if t.is_care() => b.get(i) == Some(t),
            _ => true,
        })
}

/// The single-mutant trichotomy check, strict and salvage mode.
///
/// `mutated_at` is the byte offset the mutation touched (`None` for
/// truncations, which have no single offset).
fn check_mutant(original: &TritVec, clean: &[u8], mutant: &[u8], mutated_at: Option<usize>) {
    // Strict mode: all 31 header bytes and every segment byte are CRC
    // covered, so any real change is a typed error; a no-op "mutation"
    // must still decode to the source.
    match engine(2).decode_frame(mutant) {
        Ok(out) => {
            assert!(
                covers(original, &out),
                "strict decode silently accepted a corrupt frame (mutation at {mutated_at:?})"
            );
        }
        Err(e) => {
            // Typed error: rendering it must not panic either.
            let _ = e.to_string();
        }
    }

    // Salvage mode: file-level damage is fatal; anything at or past the
    // first segment must yield a report with an accurate damage map.
    match salvage(&engine(2), mutant) {
        Err(e) => {
            let _ = e.to_string();
            if let Some(at) = mutated_at {
                assert!(
                    at < HEADER_BYTES || mutant == clean,
                    "salvage refused a frame whose file header is intact (mutation at {at})"
                );
            }
        }
        Ok(report) => {
            assert_eq!(
                report.trits.len(),
                original.len(),
                "salvage output length must match the header's source length"
            );
            if report.is_full_recovery() {
                assert!(
                    covers(original, &report.trits),
                    "full recovery must reproduce the source (mutation at {mutated_at:?})"
                );
            } else {
                // Damage map accuracy: the mutated byte lies inside some
                // damaged byte range, and everything *outside* the damaged
                // trit ranges matches the original stream.
                if let Some(at) = mutated_at {
                    assert!(
                        report
                            .damaged
                            .iter()
                            .any(|d| d.byte_range.contains(&at)
                                || d.byte_range.start >= mutant.len()),
                        "mutated byte {at} not covered by damage map {:?}",
                        report
                            .damaged
                            .iter()
                            .map(|d| d.byte_range.clone())
                            .collect::<Vec<_>>()
                    );
                }
                let mut damaged_trits = vec![false; original.len()];
                for d in &report.damaged {
                    for i in d.trit_range.clone() {
                        if i < original.len() {
                            damaged_trits[i] = true;
                        }
                    }
                    // Erased spans come back as X.
                    for i in d.trit_range.clone() {
                        if let Some(t) = report.trits.get(i) {
                            assert_eq!(
                                t,
                                Trit::X,
                                "damaged trit {i} must be erased to X (mutation at {mutated_at:?})"
                            );
                        }
                    }
                }
                for (i, damaged) in damaged_trits.iter().enumerate().take(original.len()) {
                    if *damaged {
                        continue;
                    }
                    if let Some(t) = original.get(i) {
                        if t.is_care() {
                            assert_eq!(
                                report.trits.get(i),
                                Some(t),
                                "intact trit {i} changed (mutation at {mutated_at:?})"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A v3 golden frame (interleaved GF(256) parity groups) plus its source.
fn golden_v3(seed: u64, g: u8, r: u8) -> (TritVec, Vec<u8>) {
    let set = SyntheticProfile::new("fault-v3", 24, 64, 0.72).generate(seed);
    let stream = set.as_stream().clone();
    let frame = engine_v3(1, g, r)
        .encode_frame(8, &stream)
        .expect("golden v3 frame encodes");
    (stream, frame)
}

fn engine_v3(threads: usize, g: u8, r: u8) -> Engine {
    Engine::builder()
        .threads(threads)
        .segment_bits(256)
        .parity(g, r)
        .build()
}

/// The **four-way invariant** on erasure-coded (v3) frames: for any
/// mutant, decoding yields a correct roundtrip ∨ a bit-exact repair ∨ a
/// typed error ∨ a salvage whose damage map accurately bounds the loss.
/// Never a panic, never silent corruption.
fn check_mutant_v3(original: &TritVec, mutant: &[u8], mutated_at: Option<usize>) {
    // Arm 1/3: strict decode — correct output or a typed error.
    match engine_v3(2, 2, 1).decode_frame(mutant) {
        Ok(out) => assert!(
            covers(original, &out),
            "strict decode silently accepted a corrupt v3 frame (mutation at {mutated_at:?})"
        ),
        Err(e) => {
            let _ = e.to_string();
        }
    }
    // Arms 2/3/4: the repair ladder.
    match repair(&engine_v3(2, 2, 1), mutant) {
        Err(e) => {
            let _ = e.to_string();
        }
        Ok(report) => {
            assert_eq!(
                report.trits.len(),
                original.len(),
                "repair output length must match the header's source length"
            );
            if report.is_full_recovery() {
                // Bit-exact repair (or parity-only damage): the output is
                // indistinguishable from the clean decode.
                assert!(
                    covers(original, &report.trits),
                    "full recovery must reproduce the source (mutation at {mutated_at:?})"
                );
            } else {
                // Accurate damage map: non-repaired damage is erased to
                // X, everything outside it matches the original.
                let mut damaged_trits = vec![false; original.len()];
                for d in &report.damaged {
                    if d.reason.is_repaired() {
                        continue;
                    }
                    for i in d.trit_range.clone() {
                        if let Some(t) = report.trits.get(i) {
                            assert_eq!(
                                t,
                                Trit::X,
                                "unrepaired trit {i} must be erased (mutation at {mutated_at:?})"
                            );
                        }
                        if i < original.len() {
                            damaged_trits[i] = true;
                        }
                    }
                }
                for (i, damaged) in damaged_trits.iter().enumerate() {
                    if *damaged {
                        continue;
                    }
                    if let Some(t) = original.get(i) {
                        if t.is_care() {
                            assert_eq!(
                                report.trits.get(i),
                                Some(t),
                                "intact trit {i} changed (mutation at {mutated_at:?})"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Every byte × {flip each of 8 bits, zero, 0xFF}: zero panics, zero
/// hangs, salvage damage maps always cover the mutation.
#[test]
fn exhaustive_single_byte_mutation_sweep() {
    let (original, clean) = golden(11);
    assert!(engine(1).decode_frame(&clean).is_ok(), "golden frame sane");
    for at in 0..clean.len() {
        let mut patterns: Vec<u8> = (0..8).map(|b| clean[at] ^ (1 << b)).collect();
        patterns.push(0x00);
        patterns.push(0xFF);
        for value in patterns {
            if value == clean[at] {
                continue; // identity "mutation"
            }
            let mut mutant = clean.clone();
            mutant[at] = value;
            check_mutant(&original, &clean, &mutant, Some(at));
        }
    }
}

/// Truncation at every possible length: typed error in strict mode,
/// best-effort prefix recovery in salvage mode.
#[test]
fn exhaustive_truncation_sweep() {
    let (original, clean) = golden(12);
    for cut in 0..clean.len() {
        let mutant = &clean[..cut];
        check_mutant(&original, &clean, mutant, None);
        if cut >= HEADER_BYTES + SEGMENT_HEADER_BYTES {
            // Once the file header and at least one segment header fit,
            // salvage must produce a full-length report.
            let report = salvage(&engine(1), mutant)
                .expect("salvage survives truncation past the file header");
            assert_eq!(report.trits.len(), original.len());
        }
    }
}

/// The single-byte sweep wired over a **v3 golden**: every byte of the
/// erasure-coded frame × {8 bit flips, zero, 0xFF} upholds the four-way
/// invariant — and single-byte damage to a data segment must in fact be
/// *repaired* (full recovery), since `r = 1` covers one loss per group.
#[test]
fn exhaustive_single_byte_mutation_sweep_v3() {
    let (original, clean) = golden_v3(31, 2, 1);
    let clean_out = engine_v3(1, 2, 1).decode_frame(&clean).expect("golden v3");
    assert_eq!(clean_out.len(), original.len());
    let data = data_segment_ranges(&clean);
    for at in 0..clean.len() {
        let mut patterns: Vec<u8> = (0..8).map(|b| clean[at] ^ (1 << b)).collect();
        patterns.push(0x00);
        patterns.push(0xFF);
        for value in patterns {
            if value == clean[at] {
                continue;
            }
            let mut mutant = clean.clone();
            mutant[at] = value;
            check_mutant_v3(&original, &mutant, Some(at));
        }
    }
    // Acceptance pin: any single corrupted *data payload* byte decodes
    // bit-exact through the ladder (one probe per segment).
    for r in &data {
        let mut mutant = clean.clone();
        mutant[r.start + SEGMENT_HEADER_BYTES] ^= 0x55;
        let report = repair(&engine_v3(2, 2, 1), &mutant).expect("repair runs");
        assert!(report.is_full_recovery(), "segment at {r:?} not repaired");
        assert_eq!(report.trits, clean_out, "repair must be bit-exact");
    }
}

/// Truncation at every length of a v3 golden: the four-way invariant
/// holds, and cuts that only amputate *parity* still repair to a full
/// recovery (the data segments are all intact).
#[test]
fn exhaustive_truncation_sweep_v3() {
    let (original, clean) = golden_v3(32, 2, 1);
    let data = data_segment_ranges(&clean);
    let data_end = data.last().expect("segments").end;
    for cut in 0..clean.len() {
        let mutant = &clean[..cut];
        check_mutant_v3(&original, mutant, None);
        if cut >= data_end {
            // All data present, parity torn: strict decode rejects the
            // malformed tail, but the ladder recovers everything.
            let report =
                repair(&engine_v3(1, 2, 1), mutant).expect("ladder survives parity truncation");
            assert!(
                report.is_full_recovery(),
                "cut at {cut} lost data despite all segments being present"
            );
            assert!(covers(&original, &report.trits));
        }
    }
}

/// Appending garbage is detected in strict mode and mapped in salvage.
#[test]
fn trailing_garbage_is_detected() {
    let (original, clean) = golden(13);
    for extra in [1usize, 3, 16, 64] {
        let mut mutant = clean.clone();
        mutant.extend(std::iter::repeat_n(0xA5, extra));
        assert!(
            engine(1).decode_frame(&mutant).is_err(),
            "{extra} garbage bytes accepted"
        );
        let report = salvage(&engine(1), &mutant).unwrap();
        assert_eq!(report.trits.len(), original.len());
        assert!(covers(&original, &report.trits));
    }
}

/// The limit guards hold under the sweep too: a tiny allocation budget
/// turns every decode into a typed `LimitExceeded`, never an OOM.
#[test]
fn limits_bound_the_sweep() {
    let (_, clean) = golden(14);
    let starved = Engine::builder()
        .limits(DecodeLimits {
            max_segments: 2,
            ..DecodeLimits::default()
        })
        .build();
    assert!(matches!(
        starved.decode_frame(&clean),
        Err(DecodeError::LimitExceeded { .. }) | Err(DecodeError::Frame(_))
    ));
    // A hostile per-segment ceiling of one trit: the public session
    // decode rejects the intact frame at its first segment, typed.
    let hostile = DecodeLimits {
        max_segment_trits: 1,
        ..DecodeLimits::default()
    };
    assert!(matches!(
        DecodeSession::new()
            .limits(hostile)
            .decode_frame(&clean, Policy::Strict),
        Err(DecodeError::LimitExceeded {
            what: "segment source trits",
            limit: 1,
            ..
        })
    ));
}

/// Byte ranges of the clean frame's segments, via its decode plan.
fn segment_ranges(clean: &[u8]) -> Vec<std::ops::Range<usize>> {
    let plan = engine(1).build_plan(clean).unwrap();
    plan.entries()
        .iter()
        .map(|e| match e {
            PlanEntry::Data { byte_range, .. } | PlanEntry::Parity { byte_range, .. } => {
                byte_range.clone()
            }
            _ => panic!("golden frame must scan clean"),
        })
        .collect()
}

/// Byte ranges of the clean frame's *data* segments only (v3 frames put
/// parity shards after the data, so the repair campaigns corrupt data by
/// index).
fn data_segment_ranges(clean: &[u8]) -> Vec<std::ops::Range<usize>> {
    let plan = engine(1).build_plan(clean).unwrap();
    plan.entries()
        .iter()
        .filter_map(|e| match e {
            PlanEntry::Data { byte_range, .. } => Some(byte_range.clone()),
            PlanEntry::Parity { .. } => None,
            _ => panic!("golden frame must scan clean"),
        })
        .collect()
}

proptest! {
    /// Random multi-site corruption (1–4 bytes): the trichotomy holds.
    #[test]
    fn multi_fault_campaign(
        seed in 0u64..8,
        offsets in proptest::collection::vec(0usize..4096, 1..4),
        xors in proptest::collection::vec(1u8..255, 1..4)
    ) {
        let (original, clean) = golden(seed);
        let mut mutant = clean.clone();
        for (&at, &xor) in offsets.iter().zip(xors.iter()) {
            let at = at % mutant.len();
            mutant[at] ^= xor; // xor >= 1: never the identity
        }
        // Multi-fault damage maps may merge adjacent ranges, so only the
        // trichotomy (not per-byte coverage) is asserted.
        match engine(2).decode_frame(&mutant) {
            Ok(out) => prop_assert_eq!(out.len(), original.len()),
            Err(e) => { let _ = e.to_string(); }
        }
        if let Ok(report) = salvage(&engine(2), &mutant) {
            prop_assert_eq!(report.trits.len(), original.len());
            prop_assert!(report.recovered_segments <= report.total_segments);
        }
    }

    /// Segment splicing: drop, duplicate or swap whole segments. The
    /// container carries no per-segment index, so a swap of equal-shape
    /// segments may legally decode — but it must never panic, and any
    /// success must honour the header's source length.
    #[test]
    fn splicing_campaign(seed in 0u64..4, op in 0usize..3, pick in 0usize..16) {
        let (original, clean) = golden(seed);
        let ranges = segment_ranges(&clean);
        prop_assume!(ranges.len() >= 2);
        let i = pick % ranges.len();
        let j = (pick / ranges.len()) % ranges.len();
        let mut mutant = Vec::with_capacity(clean.len() * 2);
        mutant.extend_from_slice(&clean[..HEADER_BYTES]);
        match op {
            // Drop segment i.
            0 => {
                for (s, r) in ranges.iter().enumerate() {
                    if s != i {
                        mutant.extend_from_slice(&clean[r.clone()]);
                    }
                }
            }
            // Duplicate segment i in place.
            1 => {
                for (s, r) in ranges.iter().enumerate() {
                    mutant.extend_from_slice(&clean[r.clone()]);
                    if s == i {
                        mutant.extend_from_slice(&clean[r.clone()]);
                    }
                }
            }
            // Swap segments i and j.
            _ => {
                for (s, r) in ranges.iter().enumerate() {
                    let src = if s == i { &ranges[j] } else if s == j { &ranges[i] } else { r };
                    mutant.extend_from_slice(&clean[src.clone()]);
                }
            }
        }
        match engine(2).decode_frame(&mutant) {
            Ok(out) => prop_assert_eq!(out.len(), original.len()),
            Err(e) => { let _ = e.to_string(); }
        }
        if let Ok(report) = salvage(&engine(2), &mutant) {
            // Salvage always honours the (CRC-valid) header's source length.
            prop_assert_eq!(report.trits.len(), original.len());
        }
    }

    /// **Repair exactness**: for any damage within the parity budget
    /// (≤ `r` corrupted segments per interleaved group), the repair
    /// ladder's output is **byte-identical** to the uncorrupted decode —
    /// across K ∈ {4, 8, 16, 32} and thread counts {1, 8}.
    #[test]
    fn within_budget_repair_is_byte_identical(
        k_idx in 0usize..4,
        threads_idx in 0usize..2,
        seed in 0u64..3,
        picks in proptest::collection::vec(any::<u16>(), 1..4),
    ) {
        let k = [4usize, 8, 16, 32][k_idx];
        let threads = [1usize, 8][threads_idx];
        let set = SyntheticProfile::new("repair-pt", 24, 64, 0.72).generate(seed);
        let stream = set.as_stream().clone();
        let eng = engine_v3(threads, 4, 1);
        let clean = eng.encode_frame(k, &stream).expect("encodes");
        let clean_out = eng.decode_frame(&clean).expect("clean v3 decodes");
        let data = data_segment_ranges(&clean);
        let groups = data.len().div_ceil(4);
        // Budget: at most r = 1 corrupted segment per group (interleaved:
        // segment i belongs to group i mod G). Damaged neighbours merge
        // into one scan range, which repair correctly refuses to guess
        // about, so keep the corrupted segments pairwise non-adjacent.
        let mut chosen: Vec<usize> = Vec::new();
        for p in picks {
            let i = (p as usize) % data.len();
            if chosen
                .iter()
                .all(|&j| j.abs_diff(i) >= 2 && j % groups != i % groups)
            {
                chosen.push(i);
            }
        }
        prop_assume!(!chosen.is_empty());
        let mut mutant = clean.clone();
        for &i in &chosen {
            mutant[data[i].start + SEGMENT_HEADER_BYTES] ^= 0x5A;
        }
        // Strict decode rejects the damage...
        prop_assert!(eng.decode_frame(&mutant).is_err());
        // ...and the ladder rebuilds it bit-exact.
        let report = repair(&eng, &mutant).expect("repair runs");
        prop_assert!(
            report.is_full_recovery(),
            "k={} threads={} damaged={:?}: {:?}",
            k, threads, chosen, report.damaged
        );
        prop_assert_eq!(&report.trits, &clean_out, "repair must be byte-identical");
        let rebuilt = report
            .damaged
            .iter()
            .filter(|d| d.reason.is_repaired())
            .count();
        prop_assert_eq!(rebuilt, chosen.len());
    }

    /// Header transplants: graft the file header of one frame onto the
    /// segments of another (different seed ⇒ different lengths).
    #[test]
    fn header_transplant_campaign(a in 0u64..4, b in 4u64..8) {
        let (_, frame_a) = golden(a);
        let (_, frame_b) = golden(b);
        let mut mutant = frame_a[..HEADER_BYTES].to_vec();
        mutant.extend_from_slice(&frame_b[HEADER_BYTES..]);
        match engine(1).decode_frame(&mutant) {
            Ok(out) => prop_assert_eq!(out.len(), engine_claimed_len(&mutant)),
            Err(e) => { let _ = e.to_string(); }
        }
        if let Ok(report) = salvage(&engine(1), &mutant) {
            prop_assert_eq!(report.trits.len(), engine_claimed_len(&mutant));
            // The transplanted segments still decode somewhere.
            prop_assert!(report.total_segments >= report.recovered_segments);
        }
    }
}

/// The source length the (CRC-valid) file header claims.
fn engine_claimed_len(bytes: &[u8]) -> usize {
    let unlimited = Engine::builder().limits(DecodeLimits::unlimited()).build();
    unlimited.build_plan(bytes).unwrap().source_len()
}

// ---------------------------------------------------------------------------
// Corpus replay: committed nasty frames under tests/corpus/.
// ---------------------------------------------------------------------------

/// Deterministically regenerates every corpus file. Run with
/// `CORPUS_BLESS=1 cargo test -q corpus` after changing the frame format.
fn corpus_files() -> Vec<(&'static str, Vec<u8>)> {
    let (_, clean) = golden(99);
    let lengths = ninec::code::CodeTable::paper().lengths();

    // 1. Allocation bomb: header claims u32::MAX segments of a 2^40-trit
    //    stream, but carries zero segment bytes.
    let mut bomb = Vec::new();
    frame::write_header(&mut bomb, lengths, u32::MAX, 1 << 40);

    // 2. Bad CRC: one corrupted payload byte in segment 1.
    let ranges = segment_ranges(&clean);
    let mut bad_crc = clean.clone();
    bad_crc[ranges[1].start + SEGMENT_HEADER_BYTES] ^= 0x0F;

    // 3. Truncated tail: the last segment cut in half.
    let last = ranges.last().unwrap();
    let truncated = clean[..last.start + (last.end - last.start) / 2].to_vec();

    // 4. Spliced: segment 0 duplicated, count header untouched.
    let mut spliced = clean[..HEADER_BYTES].to_vec();
    spliced.extend_from_slice(&clean[ranges[0].clone()]);
    for r in &ranges {
        spliced.extend_from_slice(&clean[r.clone()]);
    }

    // 5. Forged expansion: a CRC-valid segment whose header claims 2^20
    //    source trits decoded from a 2-trit payload.
    let mut forged = Vec::new();
    frame::write_header(&mut forged, lengths, 1, 1 << 20);
    let tiny: TritVec = "01".parse().unwrap();
    frame::write_segment(&mut forged, 8, 1 << 20, &tiny).unwrap();

    // --- v3 (erasure-coded) corpus ---------------------------------
    let (_, clean_v3) = golden_v3(99, 2, 1);
    let v3_data = data_segment_ranges(&clean_v3);
    let v3_all = segment_ranges(&clean_v3);
    let groups = v3_data.len().div_ceil(2);

    // 6. Repairable: one corrupted data payload byte — within the r = 1
    //    budget, so the ladder must rebuild it bit-exact.
    let mut v3_repairable = clean_v3.clone();
    v3_repairable[v3_data[0].start + SEGMENT_HEADER_BYTES] ^= 0x0F;

    // 7. Over budget: two corrupted segments in the *same* interleaved
    //    group (indices 0 and G share group 0) — repair must refuse that
    //    group and fall back to accurate erasure.
    let mut v3_over_budget = clean_v3.clone();
    v3_over_budget[v3_data[0].start + SEGMENT_HEADER_BYTES] ^= 0x0F;
    v3_over_budget[v3_data[groups].start + SEGMENT_HEADER_BYTES] ^= 0x0F;

    // 8. Corrupted parity segment: the data is all intact, so this is
    //    still a full recovery — the damage costs zero output trits.
    let mut v3_bad_parity = clean_v3.clone();
    let parity_start = v3_all[v3_data.len()].start;
    v3_bad_parity[parity_start + SEGMENT_HEADER_BYTES] ^= 0x0F;

    // 9. v2 in v3 clothing: a version-3 file header with `parity 0:0`
    //    wrapped around plain v2 segments — wire-compatible apart from
    //    the two geometry bytes.
    let mut v2_in_v3 = Vec::new();
    let n = segment_ranges(&clean).len();
    frame::write_header_v3(
        &mut v2_in_v3,
        lengths,
        n as u32,
        engine_claimed_len(&clean) as u64,
        0,
        0,
    );
    v2_in_v3.extend_from_slice(&clean[HEADER_BYTES..]);

    vec![
        ("bomb_header.9cf", bomb),
        ("bad_crc.9cf", bad_crc),
        ("truncated_tail.9cf", truncated),
        ("spliced.9cf", spliced),
        ("forged_expansion.9cf", forged),
        ("v3_repairable.9cf", v3_repairable),
        ("v3_over_budget.9cf", v3_over_budget),
        ("v3_bad_parity.9cf", v3_bad_parity),
        ("v3_v2_in_v3_clothing.9cf", v2_in_v3),
    ]
}

#[test]
fn corpus_replay() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let bless = std::env::var_os("CORPUS_BLESS").is_some();
    let (original, clean) = golden(99);
    let (original_v3, clean_v3) = golden_v3(99, 2, 1);
    for (name, bytes) in corpus_files() {
        let path = dir.join(name);
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            continue;
        }
        let on_disk = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (regenerate with CORPUS_BLESS=1)", path.display()));
        assert_eq!(
            on_disk, bytes,
            "{name} drifted from its generator; regenerate with CORPUS_BLESS=1"
        );

        // Replay through both modes. The in-place mutants of the golden
        // frame get the full damage-map accuracy check; the structural
        // ones (bomb, splice, forged header) get the trichotomy only —
        // their segments are *valid*, just not where the header says.
        match name {
            "bad_crc.9cf" | "truncated_tail.9cf" => {
                check_mutant(&original, &clean, &bytes, None);
            }
            "v3_repairable.9cf" | "v3_over_budget.9cf" | "v3_bad_parity.9cf" => {
                check_mutant_v3(&original_v3, &bytes, None);
            }
            _ => {
                if let Ok(out) = engine(2).decode_frame(&bytes) {
                    assert_eq!(out.len(), engine_claimed_len(&bytes), "{name}");
                }
                if let Ok(report) = salvage(&engine(2), &bytes) {
                    assert_eq!(report.trits.len(), engine_claimed_len(&bytes), "{name}");
                }
            }
        }
    }
    if bless {
        return;
    }

    // Pinned per-file expectations.
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();

    // The bomb is rejected before any allocation, in both modes.
    let bomb = read("bomb_header.9cf");
    assert!(matches!(
        engine(1).decode_frame(&bomb),
        Err(DecodeError::LimitExceeded { .. }) | Err(DecodeError::TruncatedStream { .. })
    ));
    assert!(salvage(&engine(1), &bomb).is_err());

    let bad = read("bad_crc.9cf");
    assert!(matches!(
        engine(1).decode_frame(&bad),
        Err(DecodeError::Frame(FrameError::BadCrc { segment: 1 }))
    ));
    let report = salvage(&engine(1), &bad).unwrap();
    assert_eq!(report.damaged.len(), 1);
    assert_eq!(report.damaged[0].index, 1);
    assert_eq!(report.recovered_segments, report.total_segments - 1);

    let trunc = read("truncated_tail.9cf");
    assert!(matches!(
        engine(1).decode_frame(&trunc),
        Err(DecodeError::TruncatedStream { .. }) | Err(DecodeError::Frame(_))
    ));
    let report = salvage(&engine(1), &trunc).unwrap();
    assert_eq!(report.trits.len(), original.len());
    assert!(!report.is_full_recovery());

    let spliced = read("spliced.9cf");
    assert!(engine(1).decode_frame(&spliced).is_err());
    let report = salvage(&engine(1), &spliced).unwrap();
    assert_eq!(report.trits.len(), original.len());

    let forged = read("forged_expansion.9cf");
    assert!(engine(1).decode_frame(&forged).is_err());
    assert!(
        salvage(&engine(1), &forged)
            .map(|r| r.trits.len())
            .unwrap_or(1 << 20)
            == 1 << 20,
        "forged expansion must not shrink the claimed output silently"
    );

    // --- v3 pins ---------------------------------------------------
    let clean_v3_out = engine_v3(1, 2, 1)
        .decode_frame(&clean_v3)
        .expect("v3 golden decodes strict");

    // Within the r = 1 budget: strict rejects, the ladder rebuilds the
    // lost segment bit-exact, and the damage map says which parity did it.
    let repairable = read("v3_repairable.9cf");
    assert!(engine_v3(1, 2, 1).decode_frame(&repairable).is_err());
    let report = repair(&engine_v3(2, 2, 1), &repairable).unwrap();
    assert!(report.is_full_recovery(), "{:?}", report.damaged);
    assert_eq!(report.trits, clean_v3_out, "repair must be bit-exact");
    assert_eq!(
        report
            .damaged
            .iter()
            .filter(|d| d.reason.is_repaired())
            .count(),
        1
    );

    // Two losses in one group beat r = 1: repair refuses to guess and the
    // ladder degrades to accurate erasure (both segments X-ed out).
    let over = read("v3_over_budget.9cf");
    let report = repair(&engine_v3(2, 2, 1), &over).unwrap();
    assert!(!report.is_full_recovery());
    assert_eq!(
        report
            .damaged
            .iter()
            .filter(|d| !d.reason.is_repaired() && !d.trit_range.is_empty())
            .count(),
        2,
        "{:?}",
        report.damaged
    );

    // A corrupted parity shard costs zero output trits: full recovery.
    let bad_parity = read("v3_bad_parity.9cf");
    let report = repair(&engine_v3(2, 2, 1), &bad_parity).unwrap();
    assert!(report.is_full_recovery(), "{:?}", report.damaged);
    assert!(covers(&original_v3, &report.trits));

    // A v3 header with parity 0:0 over v2 segments decodes identically
    // to the v2 frame, strict and ladder alike.
    let clothed = read("v3_v2_in_v3_clothing.9cf");
    let strict = engine(1).decode_frame(&clothed).expect("decodes strict");
    assert!(covers(&original, &strict));
    let report = repair(&engine(1), &clothed).unwrap();
    assert!(report.is_full_recovery());
    assert_eq!(report.trits, strict);
}

// ---------------------------------------------------------------------------
// Repair-rung paths the sweeps do not reach.
// ---------------------------------------------------------------------------

/// An 800-trit source: 13 segments of 64 trits (the last one 32).
fn stream_800() -> TritVec {
    let set = SyntheticProfile::new("rung", 10, 80, 0.72).generate(3);
    assert_eq!(set.as_stream().len(), 800);
    set.as_stream().clone()
}

/// A one-thread v3 engine with 64-trit segments and `g:r` parity.
fn engine_64(g: u8, r: u8) -> ninec::engine::EngineBuilder {
    Engine::builder().threads(1).segment_bits(64).parity(g, r)
}

/// `bytes` with the first payload byte of data segment `i` flipped.
fn flip_payload(engine: &Engine, bytes: &[u8], i: usize) -> Vec<u8> {
    let plan = engine.build_plan(bytes).unwrap();
    let at = plan.entries()[i].byte_range().start;
    let mut bad = bytes.to_vec();
    bad[at + SEGMENT_HEADER_BYTES] ^= 0x55;
    bad
}

/// A segment rebuilt from parity that would overshoot the header's
/// source-length total is erased under its own wire damage, never
/// spliced in. Data segment 0 is swapped for a CRC-valid 128-trit
/// segment, so segment 11 already overshoots (a header mismatch) and the
/// rebuilt segment 12 has no trits left to cover.
#[test]
fn a_rebuilt_segment_past_the_header_total_is_erased() {
    let stream = stream_800();
    let eng = engine_64(2, 1).build();
    let frame = eng.encode_frame(8, &stream).unwrap();
    let wide = Engine::builder()
        .threads(1)
        .segment_bits(128)
        .build()
        .encode_frame(8, &stream)
        .unwrap();
    let seg0 = eng.build_plan(&frame).unwrap().entries()[0].byte_range();
    let wide0 = eng.build_plan(&wide).unwrap().entries()[0].byte_range();
    let spliced = [&frame[..seg0.start], &wide[wide0], &frame[seg0.end..]].concat();
    let bad = flip_payload(&eng, &spliced, 12);

    let report = repair(&eng, &bad).unwrap();
    assert_eq!(report.trits.len(), 800);
    assert_eq!(report.repaired_segments(), 0);
    assert_eq!((report.recovered_segments, report.total_segments), (11, 13));
    let map: Vec<_> = report
        .damaged
        .iter()
        .map(|d| (d.index, d.reason.clone(), d.trit_range.clone()))
        .collect();
    assert_eq!(
        map,
        vec![
            (
                11,
                ninec::DamageReason::HeaderMismatch(
                    "segment exceeds the header's source-length total"
                ),
                768..800
            ),
            (12, ninec::DamageReason::BadCrc, 800..800),
        ]
    );
    assert!((768..800).all(|i| report.trits.get(i) == Some(Trit::X)));
    // The rebuild changed nothing: salvage alone reports the same.
    assert_eq!(report, salvage(&eng, &bad).unwrap());
}

/// A token that trips before the rebuild stage claims its job cancels
/// the rebuild: the damaged segment erases under its own `BadCrc`,
/// neither `Cancelled` nor `RepairedBy`, and nothing is repaired. The
/// rebuilds run before every decode, so the decodes behind them are
/// cancelled too and the whole output reads `X`.
#[test]
fn a_cancelled_repair_job_leaves_its_group_erased() {
    let stream = stream_800();
    let eng = engine_64(4, 1).build();
    let frame = eng.encode_frame(8, &stream).unwrap();
    let bad = flip_payload(&eng, &frame, 0);
    let plan = eng.build_plan(&bad).unwrap();

    let repaired = eng.execute_plan(&plan, Policy::Repair).unwrap();
    assert!(repaired.is_full_recovery(), "{:?}", repaired.damaged);
    assert_eq!(repaired.repaired_segments(), 1);

    let token = ninec::CancelToken::new();
    token.cancel();
    let cancelled = engine_64(4, 1).cancel_token(token).build();
    let report = cancelled.execute_plan(&plan, Policy::Repair).unwrap();
    assert_eq!(report.repaired_segments(), 0);
    assert_eq!((report.recovered_segments, report.total_segments), (0, 13));
    assert_eq!(report.damaged.len(), 13, "{:?}", report.damaged);
    let d = &report.damaged[0];
    assert_eq!(d.index, 0);
    assert_eq!(d.reason, ninec::DamageReason::BadCrc);
    assert_eq!(d.trit_range, 0..64);
    for d in &report.damaged[1..] {
        assert_eq!(d.reason, ninec::DamageReason::Cancelled, "{d:?}");
    }
    assert!(report.trits.iter().all(|t| t == Trit::X));
}

// ---------------------------------------------------------------------------
// Failpoint-armed tests: forced worker panics, delays and torn writes.
// ---------------------------------------------------------------------------

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use ninec::engine::faultpoint::{Action, FailPoint, SITE_SEG};

    fn seg_point(index: Option<usize>, action: Action) -> FailPoint {
        FailPoint {
            site: SITE_SEG.to_string(),
            index,
            action,
        }
    }

    fn armed(threads: usize, point: FailPoint) -> Engine {
        Engine::builder()
            .threads(threads)
            .segment_bits(256)
            .failpoint(point)
            .build()
    }

    /// A forced panic in segment 5's worker: strict mode reports
    /// `WorkerPanicked { segment: 5 }`, salvage maps exactly that segment
    /// as damaged — and every other segment is recovered unchanged — at
    /// both 1 and 8 threads.
    #[test]
    fn forced_worker_panic_is_isolated() {
        let (original, clean) = golden(21);
        let total = segment_ranges(&clean).len();
        assert!(total > 5, "need at least 6 segments");
        for threads in [1usize, 8] {
            let eng = armed(threads, seg_point(Some(5), Action::Panic));
            match eng.decode_frame(&clean) {
                Err(DecodeError::WorkerPanicked { segment: 5 }) => {}
                other => panic!("threads={threads}: expected WorkerPanicked, got {other:?}"),
            }

            let report = salvage(&eng, &clean).unwrap();
            assert_eq!(report.trits.len(), original.len(), "threads={threads}");
            assert_eq!(report.damaged.len(), 1, "threads={threads}");
            assert_eq!(report.damaged[0].index, 5);
            assert!(matches!(
                report.damaged[0].reason,
                ninec::DamageReason::WorkerPanicked
            ));
            assert_eq!(report.recovered_segments, total - 1);
            // Everything outside the panicked segment is byte-identical.
            for i in 0..original.len() {
                if report.damaged[0].trit_range.contains(&i) {
                    assert_eq!(report.trits.get(i), Some(Trit::X));
                } else if let Some(t) = original.get(i) {
                    if t.is_care() {
                        assert_eq!(report.trits.get(i), Some(t), "trit {i}");
                    }
                }
            }
        }
    }

    /// Wildcard panic (`seg:*:panic`): every slot poisons independently,
    /// the pool still terminates, and salvage erases everything.
    #[test]
    fn all_workers_panicking_still_terminates() {
        let (original, clean) = golden(22);
        for threads in [1usize, 8] {
            let eng = armed(threads, seg_point(None, Action::Panic));
            assert!(matches!(
                eng.decode_frame(&clean),
                Err(DecodeError::WorkerPanicked { segment: 0 })
            ));
            let report = salvage(&eng, &clean).unwrap();
            assert_eq!(report.recovered_segments, 0);
            assert_eq!(report.trits.len(), original.len());
            assert!(report.trits.iter().all(|t| t == Trit::X));
        }
    }

    /// A delayed segment changes timing, never results: output equals
    /// the undelayed decode at every thread count.
    #[test]
    fn delay_changes_timing_not_results() {
        let (original, clean) = golden(23);
        for threads in [1usize, 8] {
            let eng = armed(threads, seg_point(Some(2), Action::Delay { millis: 5 }));
            let out = eng.decode_frame(&clean).unwrap();
            assert!(covers(&original, &out));
        }
    }

    /// A torn write past the CRC (Corrupt) yields *wrong data with no
    /// error* — exactly the failure class CRCs cannot catch — and the
    /// differential against the clean decode pins it to one trit.
    #[test]
    fn torn_write_corrupts_exactly_one_trit() {
        let (_, clean) = golden(24);
        let clean_out = engine(1).decode_frame(&clean).unwrap();
        let eng = armed(1, seg_point(Some(0), Action::Corrupt));
        let torn = eng.decode_frame(&clean).unwrap();
        assert_eq!(torn.len(), clean_out.len());
        let diffs: Vec<usize> = (0..torn.len())
            .filter(|&i| torn.get(i) != clean_out.get(i))
            .collect();
        assert_eq!(diffs, vec![0], "torn write must flip exactly trit 0");
    }

    /// The torn write flips its own segment's first trit also where that
    /// trit shares an output word with the segment before it: 40-trit
    /// segments start inside words, so strict decode writes their first
    /// trits into edge words it merges after the join.
    #[test]
    fn torn_write_flips_a_first_trit_inside_a_word() {
        let stream = SyntheticProfile::new("torn", 24, 64, 0.72)
            .generate(24)
            .as_stream()
            .clone();
        let build = |threads: usize| Engine::builder().threads(threads).segment_bits(40);
        let frame = build(1).build().encode_frame(8, &stream).unwrap();
        let clean_out = build(1).build().decode_frame(&frame).unwrap();
        for threads in [1usize, 3] {
            for seg in [1usize, 2, 7] {
                let point = seg_point(Some(seg), Action::Corrupt);
                let torn = build(threads)
                    .failpoint(point)
                    .build()
                    .decode_frame(&frame)
                    .unwrap();
                let diffs: Vec<usize> = (0..torn.len())
                    .filter(|&i| torn.get(i) != clean_out.get(i))
                    .collect();
                assert_eq!(diffs, vec![40 * seg], "threads {threads}, segment {seg}");
                let flipped = match clean_out.get(40 * seg) {
                    Some(Trit::Zero) => Trit::One,
                    _ => Trit::Zero,
                };
                assert_eq!(torn.get(40 * seg), Some(flipped));
            }
        }
    }
}
