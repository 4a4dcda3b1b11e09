//! Ladder-equivalence suite: every way of decoding a frame agrees on
//! *every* input — same decoded trits, same typed errors (hence the same
//! CLI exit codes), same damage maps.
//!
//! Five layers:
//!
//! 1. replay of every committed corpus frame (`tests/corpus/*.9cf`);
//! 2. an exhaustive single-byte mutation sweep over a golden v2 and a
//!    golden v3 frame (every offset × two mutation values), plus every
//!    truncation length of a second golden v2 and v3 frame;
//! 3. proptest campaigns across `K ∈ {4, 8, 16, 32}` × threads
//!    `{1, 8}` with random multi-site corruption;
//! 4. the 9C codec's own outcomes: seeded raw streams over four code
//!    tables and seven block sizes, CRC-valid forged frames whose
//!    payloads fail 9C decoding, and the payload unpack with a reserved
//!    `11` code or a cut at every position;
//! 5. the 9C encoder's outcomes: the encoded stream and tallies of
//!    seeded sources over the same tables and block sizes under every
//!    case policy, chunked feeds split at every offset of a word, and
//!    engine frames at one and two threads.
//!
//! Layers 1, 2, 4 and 5 are pinned by *outcome goldens* under
//! `tests/golden/outcomes_*.txt`: one line per input holding a 64-bit
//! digest of the `Debug` text of its results. A frame has five —
//! [`Engine::decode_frame`], [`Engine::build_plan`] and
//! [`Engine::execute_plan`] at every [`Policy`] on that plan; a raw
//! stream or a payload has the one `decode_trits` or `unpack_payload`
//! result; an encode has its stream's digest and its `EncodeStats`, and
//! an encoded frame its bytes. They record the typed errors and damage maps
//! against history rather than against a second implementation.
//! Regenerate them only after an intended behaviour change, with
//! `OUTCOME_BLESS=1 cargo test --test ladder_equivalence`.
//!
//! Every input of layers 1 and 2 also checks the streaming path against
//! the in-memory one: [`Engine::decode_stream`] over a 7-byte dribble
//! returns what [`Engine::decode_frame`] returns, and
//! [`FrameReader::next_item`] yields the byte range, damage reason and
//! claimed trits of each [`Engine::build_plan`] entry. Layer 3 asserts
//! that fail-fast, full-plan and streaming strict decode agree, and that
//! repair and salvage reports do not depend on the thread count.
//!
//! [`Engine::build_plan`]: ninec::Engine::build_plan
//! [`Engine::execute_plan`]: ninec::Engine::execute_plan
//! [`Engine::decode_frame`]: ninec::Engine::decode_frame
//! [`Engine::decode_stream`]: ninec::Engine::decode_stream
//! [`FrameReader::next_item`]: ninec::engine::FrameReader::next_item
//! [`Policy`]: ninec::Policy

use ninec::engine::{frame, DecodeLimits, FrameReader, ReadError, StreamItem};
use ninec::{
    CodeTable, DamageReason, DecodeError, DecodeSession, Encoder, Engine, FrameError, PlanEntry,
    Policy,
};
use ninec_testdata::gen::SyntheticProfile;
use ninec_testdata::trit::{Trit, TritVec};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::Read;
use std::path::PathBuf;

fn engine(threads: usize) -> Engine {
    Engine::builder().threads(threads).segment_bits(256).build()
}

fn engine_v3(threads: usize, g: u8, r: u8) -> Engine {
    Engine::builder()
        .threads(threads)
        .segment_bits(256)
        .parity(g, r)
        .build()
}

fn golden(seed: u64) -> Vec<u8> {
    let set = SyntheticProfile::new("ladder", 24, 64, 0.72).generate(seed);
    engine(1)
        .encode_frame(8, set.as_stream())
        .expect("golden frame encodes")
}

fn golden_v3(seed: u64, g: u8, r: u8) -> Vec<u8> {
    let set = SyntheticProfile::new("ladder", 24, 64, 0.72).generate(seed);
    engine_v3(1, g, r)
        .encode_frame(8, set.as_stream())
        .expect("golden v3 frame encodes")
}

// ---------------------------------------------------------------------------
// Streaming against in-memory.
// ---------------------------------------------------------------------------

/// Hands out at most `chunk` bytes per `read` call.
struct Dribble<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn dribble(bytes: &[u8]) -> Dribble<'_> {
    Dribble { bytes, chunk: 7 }
}

/// A streaming failure as the in-memory decode would type it.
fn as_decode_error(e: ReadError) -> Result<DecodeError, String> {
    match e {
        ReadError::Frame(e) => Ok(DecodeError::from(e)),
        ReadError::Decode(e) => Ok(e),
        other => Err(format!("{other:?}")),
    }
}

/// How strict streaming decode differs from [`Engine::decode_frame`] on
/// `bytes`, if it does.
fn stream_decode_difference(engine: &Engine, bytes: &[u8]) -> Option<String> {
    let want = engine.decode_frame(bytes);
    let got = match engine.decode_stream(dribble(bytes)) {
        Ok(trits) => Ok(trits),
        Err(e) => match as_decode_error(e) {
            Ok(e) => Err(e),
            Err(other) => return Some(format!("stream failed with {other}")),
        },
    };
    (got != want).then(|| format!("stream {got:?} vs in-memory {want:?}"))
}

/// Salvage's reading of a plan entry it writes off.
fn written_off(entry: &PlanEntry<'_>) -> Option<(DamageReason, Option<usize>)> {
    match entry {
        PlanEntry::OverBudget { seg, .. } => Some((
            DamageReason::LimitExceeded("total decode allocation"),
            Some(seg.source_trits),
        )),
        PlanEntry::Damaged {
            claimed_source_trits,
            error,
            ..
        } => {
            let reason = match error {
                FrameError::BadCrc { .. } => DamageReason::BadCrc,
                FrameError::Truncated { .. } => DamageReason::Truncated,
                FrameError::Malformed { what, .. } => DamageReason::Malformed(what),
                FrameError::LimitExceeded { what, .. } => DamageReason::LimitExceeded(what),
                // No segment parse reports anything else.
                _ => return None,
            };
            Some((reason, *claimed_source_trits))
        }
        _ => None,
    }
}

/// How [`FrameReader`]'s items differ from the [`Engine::build_plan`]
/// entries of `bytes`, if they do.
fn reader_difference(engine: &Engine, bytes: &[u8]) -> Option<String> {
    let mut fr = FrameReader::with_limits(dribble(bytes), *engine.limits());
    let plan = match engine.build_plan(bytes) {
        Ok(plan) => plan,
        Err(want) => {
            // File-level damage: the reader fails too (a magic prefix cut
            // short is a torn header to the reader, bad magic to the plan).
            let got = fr.header().and_then(|_| loop {
                if fr.next_item()?.is_none() {
                    break Ok(());
                }
            });
            return got
                .is_ok()
                .then(|| format!("reader walked a frame the plan build refused: {want:?}"));
        }
    };
    if let Err(e) = fr.header() {
        return Some(format!("reader header failed: {e:?}"));
    }
    for (i, entry) in plan.entries().iter().enumerate() {
        let start = fr.position();
        let item = match fr.next_item() {
            Ok(Some(item)) => item,
            other => return Some(format!("entry {i}: reader gave {other:?}")),
        };
        let range = start..fr.position();
        let same = range == entry.byte_range()
            && match (&item, entry) {
                (StreamItem::Data(seg), PlanEntry::Data { byte_range, .. }) => {
                    seg.bytes == bytes[byte_range.clone()]
                }
                (StreamItem::Parity(par), PlanEntry::Parity { par: want, .. }) => {
                    (par.group, par.pindex, &par.shard[..])
                        == (want.group, want.pindex, want.payload)
                }
                (
                    StreamItem::Damaged {
                        byte_range,
                        reason,
                        claimed_source_trits,
                    },
                    _,
                ) => {
                    *byte_range == range
                        && written_off(entry) == Some((reason.clone(), *claimed_source_trits))
                }
                _ => false,
            };
        if !same {
            return Some(format!(
                "entry {i}: reader {range:?} {item:?} vs plan {entry:?}"
            ));
        }
    }
    match fr.next_item() {
        Ok(None) => None,
        other => Some(format!("reader ran past the plan: {other:?}")),
    }
}

/// Asserts that no input of `inputs` streams differently from its
/// in-memory decode and plan, naming every one that does.
fn assert_streams_agree(engine: &Engine, inputs: &[(String, Vec<u8>)]) {
    let differing: Vec<String> = inputs
        .iter()
        .filter_map(|(name, bytes)| {
            let diff = [
                stream_decode_difference(engine, bytes),
                reader_difference(engine, bytes),
            ];
            let diff: Vec<String> = diff.into_iter().flatten().collect();
            (!diff.is_empty()).then(|| format!("{name}: {}", diff.join("; ")))
        })
        .collect();
    assert!(
        differing.is_empty(),
        "{} of {} inputs stream differently:\n{}",
        differing.len(),
        inputs.len(),
        differing.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Outcome goldens.
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a: a digest fixed by its definition, unlike the std
/// hashers, so the goldens cannot drift with the toolchain.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The five results an input's golden line pins, as `Debug` text.
fn render_outcome(engine: &Engine, bytes: &[u8]) -> String {
    let strict = engine.decode_frame(bytes);
    let plan = engine.build_plan(bytes);
    let rungs = match &plan {
        Ok(plan) => [Policy::Strict, Policy::Repair, Policy::Salvage]
            .map(|policy| format!("{:?}", engine.execute_plan(plan, policy))),
        Err(_) => [
            "no plan".to_string(),
            "no plan".to_string(),
            "no plan".to_string(),
        ],
    };
    format!(
        "decode_frame: {strict:?}\nbuild_plan: {plan:?}\nstrict: {}\nrepair: {}\nsalvage: {}\n",
        rungs[0], rungs[1], rungs[2]
    )
}

/// Checks every `(input name, rendering)` against the golden file `name`,
/// or rewrites the file under `OUTCOME_BLESS=1`. A mismatch names every
/// differing input and prints the fresh rendering of the first few.
fn check_outcomes(name: &str, outcomes: &[(String, String)]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("OUTCOME_BLESS").is_some() {
        let text: String = outcomes
            .iter()
            .map(|(input, rendering)| format!("{input} {:016x}\n", fnv1a64(rendering)))
            .collect();
        std::fs::write(&path, text).expect("golden file writes");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with OUTCOME_BLESS=1)", path.display()));
    let golden: HashMap<&str, &str> = text
        .lines()
        .filter_map(|line| line.rsplit_once(' '))
        .collect();
    assert_eq!(
        golden.len(),
        outcomes.len(),
        "{name}: the golden file and the input set differ in size"
    );
    let differing: Vec<&(String, String)> = outcomes
        .iter()
        .filter(|(input, rendering)| {
            golden.get(input.as_str()) != Some(&format!("{:016x}", fnv1a64(rendering)).as_str())
        })
        .collect();
    if !differing.is_empty() {
        let mut report = format!(
            "{name}: {} inputs differ from their golden\n",
            differing.len()
        );
        for (input, _) in &differing {
            report.push_str(&format!("  {input}\n"));
        }
        for (input, rendering) in differing.iter().take(3) {
            report.push_str(&format!("--- {input}, fresh rendering:\n{rendering}"));
        }
        panic!("{report}");
    }
}

/// The corpus frames, by file name, in a stable order.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut frames: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("corpus dir exists")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("9cf"))
        .map(|path| {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("utf-8 corpus name")
                .to_string();
            let bytes = std::fs::read(&path).expect("corpus frame reads");
            (name, bytes)
        })
        .collect();
    frames.sort();
    frames
}

/// Every single-byte `^ 0x01` / `^ 0xFF` mutation of `clean`, named.
fn mutants(tag: &str, clean: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::with_capacity(2 * clean.len());
    for at in 0..clean.len() {
        for val in [0x01u8, 0xFF] {
            let mut mutant = clean.to_vec();
            mutant[at] ^= val;
            out.push((format!("{tag}@{at}^{val:02x}"), mutant));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// 1. Corpus replay.
// ---------------------------------------------------------------------------

#[test]
fn corpus_frames_ladder_identically_through_the_plan() {
    let frames = corpus();
    assert!(
        frames.len() >= 9,
        "corpus shrank to {} frames — wrong directory?",
        frames.len()
    );
    let mut outcomes = Vec::new();
    for (name, bytes) in &frames {
        let rendering = render_outcome(&engine(1), bytes);
        assert_eq!(
            render_outcome(&engine(8), bytes),
            rendering,
            "{name}: outcome depends on the thread count"
        );
        outcomes.push((format!("corpus/{name}"), rendering));
    }
    check_outcomes("outcomes_corpus.txt", &outcomes);
    for threads in [1, 8] {
        assert_streams_agree(&engine(threads), &frames);
    }
}

// ---------------------------------------------------------------------------
// 2. Exhaustive single-byte mutation sweep + truncations.
// ---------------------------------------------------------------------------

#[test]
fn every_single_byte_mutation_ladders_identically_v2() {
    let eng = engine(2);
    let inputs = mutants("v2", &golden(7));
    let outcomes: Vec<(String, String)> = inputs
        .iter()
        .map(|(name, mutant)| (name.clone(), render_outcome(&eng, mutant)))
        .collect();
    check_outcomes("outcomes_mutation_v2.txt", &outcomes);
    assert_streams_agree(&eng, &inputs);
}

#[test]
fn every_single_byte_mutation_ladders_identically_v3() {
    let eng = engine_v3(2, 2, 1);
    let inputs = mutants("v3", &golden_v3(7, 2, 1));
    let outcomes: Vec<(String, String)> = inputs
        .iter()
        .map(|(name, mutant)| (name.clone(), render_outcome(&eng, mutant)))
        .collect();
    check_outcomes("outcomes_mutation_v3.txt", &outcomes);
    assert_streams_agree(&eng, &inputs);
}

#[test]
fn every_truncation_ladders_identically_v2() {
    let clean = golden(11);
    let eng = engine(2);
    let inputs: Vec<(String, Vec<u8>)> = (0..clean.len())
        .map(|len| (format!("v2[..{len}]"), clean[..len].to_vec()))
        .collect();
    let outcomes: Vec<(String, String)> = inputs
        .iter()
        .map(|(name, cut)| (name.clone(), render_outcome(&eng, cut)))
        .collect();
    check_outcomes("outcomes_truncation_v2.txt", &outcomes);
    assert_streams_agree(&eng, &inputs);
}

#[test]
fn every_truncation_ladders_identically() {
    let clean = golden_v3(11, 2, 1);
    let eng = engine_v3(2, 2, 1);
    let inputs: Vec<(String, Vec<u8>)> = (0..clean.len())
        .map(|len| (format!("v3[..{len}]"), clean[..len].to_vec()))
        .collect();
    let outcomes: Vec<(String, String)> = inputs
        .iter()
        .map(|(name, cut)| (name.clone(), render_outcome(&eng, cut)))
        .collect();
    check_outcomes("outcomes_truncation_v3.txt", &outcomes);
    assert_streams_agree(&eng, &inputs);
}

/// Strict decode charges parity shards against the allocation budget in
/// memory and streamed alike: with a cap between the data-only and the
/// data-plus-parity cost, both reject the frame with the same error.
#[test]
fn streaming_strict_charges_parity_like_the_in_memory_walk() {
    let clean = golden_v3(7, 2, 1);
    let plan = engine_v3(1, 2, 1).build_plan(&clean).expect("clean plan");
    let mut data_cost = plan.source_len().div_ceil(4);
    let mut parity_cost = 0;
    for entry in plan.entries() {
        match entry {
            PlanEntry::Data { seg, .. } => {
                data_cost += seg.source_trits.div_ceil(4) + seg.payload_trits.div_ceil(4);
            }
            PlanEntry::Parity { par, .. } => parity_cost += par.payload.len(),
            other => panic!("clean frame has no damage: {other:?}"),
        }
    }
    assert!(parity_cost > 0, "the frame carries parity");
    for cap in data_cost..=data_cost + parity_cost {
        let eng = Engine::builder()
            .threads(2)
            .limits(DecodeLimits {
                max_total_alloc: cap,
                ..DecodeLimits::default()
            })
            .build();
        let want = eng.decode_frame(&clean);
        assert_eq!(
            want.is_ok(),
            cap == data_cost + parity_cost,
            "cap {cap}: {want:?}"
        );
        assert_eq!(stream_decode_difference(&eng, &clean), None, "cap {cap}");
    }
}

/// A strict session decode returns the engine's fail-fast verdict even
/// where the full walk runs out of resync probes: with a budget of four
/// probes the full plan fails with `LimitExceeded`, while
/// [`Engine::decode_frame`] and the strict session both report the
/// damaged segment's `BadCrc`. Repair and salvage keep the full plan.
#[test]
fn strict_session_returns_the_engine_verdict_past_the_probe_budget() {
    let limits = DecodeLimits {
        max_resync_probes: 4,
        ..DecodeLimits::default()
    };
    let eng = Engine::builder()
        .threads(1)
        .segment_bits(256)
        .limits(limits)
        .build();
    let mut bad = golden(5);
    bad[frame::HEADER_BYTES + frame::SEGMENT_HEADER_BYTES] ^= 0x55;
    let full = eng.build_plan(&bad).map(|_| ());
    assert!(
        matches!(
            full,
            Err(DecodeError::LimitExceeded {
                what: "resync probes",
                ..
            })
        ),
        "{full:?}"
    );
    let want = eng.decode_frame(&bad);
    assert_eq!(
        want,
        Err(DecodeError::Frame(FrameError::BadCrc { segment: 0 }))
    );
    let session = DecodeSession::new().threads(1).limits(limits);
    let got = session.decode_frame(&bad, Policy::Strict).map(|o| o.trits);
    assert_eq!(got, want);
    for policy in [Policy::Repair, Policy::Salvage] {
        let ladder = session.decode_frame(&bad, policy).map(|_| ());
        assert_eq!(ladder, full, "{policy:?}");
    }
}

// ---------------------------------------------------------------------------
// 3. Proptest campaigns: K × threads × random corruption.
// ---------------------------------------------------------------------------

fn to_stream(raw: &[u8]) -> TritVec {
    raw.iter()
        .map(|b| match b % 3 {
            0 => ninec_testdata::trit::Trit::Zero,
            1 => ninec_testdata::trit::Trit::One,
            _ => ninec_testdata::trit::Trit::X,
        })
        .collect()
}

/// Fail-fast strict ([`Engine::decode_frame`]), full-plan strict and
/// streaming strict decode agree on `bytes`.
fn assert_strict_paths_agree(engine: &Engine, bytes: &[u8]) {
    let fail_fast = engine.decode_frame(bytes);
    let full = engine
        .build_plan(bytes)
        .and_then(|plan| engine.execute_plan(&plan, Policy::Strict))
        .map(|report| report.trits);
    assert_eq!(full, fail_fast, "full-plan strict vs fail-fast strict");
    assert_eq!(stream_decode_difference(engine, bytes), None);
}

type Rungs = Result<
    (
        Result<ninec::SalvageReport, DecodeError>,
        Result<ninec::SalvageReport, DecodeError>,
    ),
    DecodeError,
>;

/// The repair and salvage reports of `bytes` at `threads` workers.
fn rungs(threads: usize, (g, r): (u8, u8), bytes: &[u8]) -> Rungs {
    let engine = engine_v3(threads, g, r);
    engine.build_plan(bytes).map(|plan| {
        (
            engine.execute_plan(&plan, Policy::Repair),
            engine.execute_plan(&plan, Policy::Salvage),
        )
    })
}

proptest! {
    #[test]
    fn random_corruption_ladders_identically(
        raw in proptest::collection::vec(0u8..3, 64..1024),
        k_idx in 0usize..4,
        threads_idx in 0usize..2,
        parity_idx in 0usize..3,
        offsets in proptest::collection::vec(0usize..4096, 1..5),
        xors in proptest::collection::vec(1u8..255, 1..5),
    ) {
        let k = [4usize, 8, 16, 32][k_idx];
        let threads = [1usize, 8][threads_idx];
        let parity = [(0u8, 0u8), (2, 1), (4, 1)][parity_idx];
        let eng = engine_v3(threads, parity.0, parity.1);
        let clean = eng.encode_frame(k, &to_stream(&raw)).expect("frame encodes");
        let mut mutant = clean.clone();
        for (at, val) in offsets.iter().zip(xors.iter()) {
            let at = at % mutant.len();
            mutant[at] ^= val;
        }
        // The clean frame must also agree (and decode at all).
        prop_assert!(eng.decode_frame(&clean).is_ok());
        for bytes in [&mutant, &clean] {
            assert_strict_paths_agree(&eng, bytes);
            prop_assert_eq!(rungs(1, parity, bytes), rungs(8, parity, bytes));
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Codec outcomes: the 9C decoder's own typed errors.
// ---------------------------------------------------------------------------
//
// The frame checks and the CRC reject almost every mutated frame above
// before its payload reaches the 9C decoder, so those goldens barely
// touch the codec errors. This golden drives the decoder directly: raw
// streams through `DecodeSession::decode_trits`, CRC-valid forged frames
// whose payloads fail 9C decoding, and the payload unpack.

/// splitmix64, so the inputs depend on nothing outside this file.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn trit(&mut self) -> Trit {
        [Trit::Zero, Trit::One, Trit::X][self.below(3)]
    }

    fn bit(&mut self) -> Trit {
        [Trit::Zero, Trit::One][self.below(2)]
    }
}

/// The paper's table, a permutation of its lengths, a Kraft sum below 1
/// (some prefixes match no codeword) and a 16-bit codeword.
const CODEC_TABLES: [(&str, [u8; 9]); 4] = [
    ("paper", ninec::code::PAPER_LENGTHS),
    ("permuted", [4, 2, 5, 5, 5, 5, 5, 5, 1]),
    ("kraft075", [2, 2, 3, 4, 5, 6, 7, 8, 9]),
    ("long16", [1, 2, 3, 4, 5, 6, 7, 8, 16]),
];

const CODEC_KS: [usize; 7] = [4, 6, 8, 16, 32, 64, 130];

/// A source of whole and partial blocks whose halves are zero runs, one
/// runs, all-X or random, so every one of the nine cases occurs.
fn codec_source(mix: &mut Mix, k: usize) -> TritVec {
    let halves = 2 * mix.below(10) + mix.below(2);
    let mut src = TritVec::new();
    for _ in 0..halves {
        let style = mix.below(4);
        for _ in 0..k / 2 {
            let x = mix.below(3) == 0;
            src.push(match style {
                0 if !x => Trit::Zero,
                1 if !x => Trit::One,
                3 => mix.trit(),
                _ => Trit::X,
            });
        }
    }
    for _ in 0..mix.below(k) {
        src.push(mix.trit());
    }
    src
}

/// One raw-stream input: a stream and the source length to ask for.
/// `mode` picks a clean encoding, a cut, an `X` or a flipped bit at a
/// random position, a source length past the stream, or random trits or
/// bits (the latter with a rare `X` far from the stream's start).
fn codec_stream(mix: &mut Mix, table: &CodeTable, k: usize, mode: usize) -> (TritVec, usize) {
    let src = codec_source(mix, k);
    let encoded = Encoder::with_table(k, table.clone())
        .expect("valid K")
        .encode_stream(&src);
    let mut stream = encoded.stream().clone();
    let mut source_len = src.len();
    let at = |mix: &mut Mix, len: usize| mix.below(len.max(1));
    match mode {
        0 => {}
        1 => {
            let cut = at(mix, stream.len());
            stream.truncate(cut);
        }
        2 | 3 if !stream.is_empty() => {
            let i = at(mix, stream.len());
            let t = match (mode, stream.get(i)) {
                (2, _) => Trit::X,
                (_, Some(Trit::One)) => Trit::Zero,
                _ => Trit::One,
            };
            stream.set(i, t);
        }
        4 => source_len += 1 + mix.below(3 * k),
        5 => {
            stream = (0..mix.below(64)).map(|_| mix.trit()).collect();
            source_len = mix.below(8 * k);
        }
        _ => {
            stream = (0..mix.below(6 * k + 24))
                .map(|_| {
                    if mix.below(24) == 0 {
                        Trit::X
                    } else {
                        mix.bit()
                    }
                })
                .collect();
            source_len = mix.below(16 * k);
        }
    }
    (stream, source_len)
}

/// A CRC-valid v2 frame of one to three segments whose payloads come
/// from [`codec_stream`]: every frame check passes, so whatever fails,
/// fails in the 9C decoder.
fn forged_frame(mix: &mut Mix, lengths: [u8; 9], k: usize) -> Vec<u8> {
    let table = CodeTable::from_lengths(&lengths).expect("Kraft-valid");
    let segments: Vec<(usize, TritVec)> = (0..1 + mix.below(3))
        .map(|_| {
            let mode = mix.below(8);
            let (stream, source_len) = codec_stream(mix, &table, k, mode);
            // The frame check caps a segment's claim at `payload × K`.
            (source_len.min(stream.len() * k), stream)
        })
        .collect();
    let total: usize = segments.iter().map(|(n, _)| n).sum();
    let mut bytes = Vec::new();
    frame::write_header(&mut bytes, lengths, segments.len() as u32, total as u64);
    for (source_trits, payload) in &segments {
        frame::write_segment(&mut bytes, k, *source_trits, payload).expect("segment fits");
    }
    bytes
}

#[test]
fn codec_outcomes_match_their_golden() {
    let mut outcomes = Vec::new();
    let mut kinds: HashMap<&str, usize> = HashMap::new();
    for (name, lengths) in CODEC_TABLES {
        let table = CodeTable::from_lengths(&lengths).expect("Kraft-valid");
        for k in CODEC_KS {
            let mut mix = Mix(fnv1a64(&format!("{name}/{k}")));
            for seed in 0..80 {
                let (stream, source_len) = codec_stream(&mut mix, &table, k, seed % 8);
                let got = DecodeSession::new()
                    .k(k)
                    .table(table.clone())
                    .source_len(source_len)
                    .decode_trits(&stream);
                let kind = match &got {
                    Ok(_) => "Ok",
                    Err(DecodeError::XInCodeword { .. }) => "XInCodeword",
                    Err(DecodeError::BadCodeword { .. }) => "BadCodeword",
                    Err(DecodeError::TruncatedPayload { .. }) => "TruncatedPayload",
                    Err(DecodeError::TooShort { .. }) => "TooShort",
                    Err(other) => panic!("{name}/k{k}/{seed}: unexpected {other:?}"),
                };
                *kinds.entry(kind).or_default() += 1;
                outcomes.push((format!("trits/{name}/k{k}/{seed}"), format!("{got:?}")));
            }
            let eng = engine(1);
            for seed in 0..8 {
                let bytes = forged_frame(&mut mix, lengths, k);
                outcomes.push((
                    format!("frame/{name}/k{k}/{seed}"),
                    render_outcome(&eng, &bytes),
                ));
            }
        }
    }
    for kind in [
        "Ok",
        "XInCodeword",
        "BadCodeword",
        "TruncatedPayload",
        "TooShort",
    ] {
        let n = kinds.get(kind).copied().unwrap_or(0);
        assert!(n >= 100, "only {n} raw streams end in {kind}: {kinds:?}");
    }
    // The payload unpack: a reserved `11` code at every position, the
    // bytes cut at every length, and both at once.
    let mut mix = Mix(fnv1a64("unpack"));
    for n in [1usize, 3, 4, 5, 31, 32, 33, 64, 67, 130] {
        let trits: TritVec = (0..n).map(|_| mix.trit()).collect();
        let packed = frame::pack_payload(&trits);
        let unpack = |bytes: &[u8]| {
            let seg = frame::ParsedSegment {
                k: 8,
                source_trits: n,
                payload_trits: n,
                payload: bytes,
            };
            format!("{:?}", frame::unpack_payload(&seg, 7))
        };
        outcomes.push((format!("unpack/n{n}/clean"), unpack(&packed)));
        for at in 0..n {
            let mut bad = packed.clone();
            bad[at / 4] |= 0b11 << (at % 4 * 2);
            outcomes.push((format!("unpack/n{n}/11@{at}"), unpack(&bad)));
            let cut = mix.below(packed.len() + 1);
            outcomes.push((format!("unpack/n{n}/11@{at}/cut{cut}"), unpack(&bad[..cut])));
        }
        for cut in 0..packed.len() {
            outcomes.push((format!("unpack/n{n}/cut{cut}"), unpack(&packed[..cut])));
        }
        if n % 4 != 0 {
            // Pad bits past the last trit are outside the data.
            let mut padded = packed.clone();
            *padded.last_mut().expect("non-empty") |= 0b11 << 6;
            outcomes.push((format!("unpack/n{n}/pad11"), unpack(&padded)));
        }
    }
    assert!(outcomes.len() >= 2000, "{} inputs", outcomes.len());
    check_outcomes("outcomes_codec.txt", &outcomes);
}

// ---------------------------------------------------------------------------
// 5. Encode outcomes: the 9C encoder's streams and tallies.
// ---------------------------------------------------------------------------
//
// Every layer above starts from an encoded stream, so they pin the
// encoder only through the inputs they happen to build. This golden pins
// it directly: the encoded stream and the `EncodeStats` of seeded
// sources over the codec tables and block sizes, under each case policy,
// and whole engine frames cut into segments that are not multiples of 64.

/// The case-selection policies the encode golden sweeps.
const ENCODE_SELECTS: [(&str, ninec::CaseSelect); 3] = [
    ("min", ninec::CaseSelect::MinSize),
    ("pa1", ninec::CaseSelect::PowerAware { max_extra_bits: 1 }),
    ("pa4", ninec::CaseSelect::PowerAware { max_extra_bits: 4 }),
];

/// A source of at least three words built from pieces of 1 to 200
/// trits: all-`X` stretches, long zero or one runs with scattered `X`,
/// sparse care bits, or random trits. Whole words of `X`, blocks that
/// straddle a word and long uniform runs all occur.
fn long_source(mix: &mut Mix, k: usize) -> TritVec {
    let target = 192 + mix.below(4 * k + 64);
    let mut src = TritVec::new();
    while src.len() < target {
        let style = mix.below(6);
        for _ in 0..1 + mix.below(200) {
            src.push(match style {
                1 if mix.below(8) != 0 => Trit::Zero,
                2 if mix.below(8) != 0 => Trit::One,
                3 if mix.below(32) == 0 => mix.bit(),
                4 => mix.trit(),
                _ => Trit::X,
            });
        }
    }
    src
}

/// The encoded stream's digest and the run's tallies, as one line.
fn render_encoded(encoded: &ninec::Encoded) -> String {
    format!(
        "{:016x} {:?}",
        fnv1a64(&encoded.stream().to_string()),
        encoded.stats()
    )
}

#[test]
fn encode_outcomes_match_their_golden() {
    let mut outcomes = Vec::new();
    let mut case_counts = [0u64; 9];
    let mut power_aware_differs = 0usize;
    for (name, lengths) in CODEC_TABLES {
        let table = CodeTable::from_lengths(&lengths).expect("Kraft-valid");
        for k in CODEC_KS {
            let mut mix = Mix(fnv1a64(&format!("encode/{name}/{k}")));
            for seed in 0..30 {
                let src = if seed % 2 == 0 {
                    codec_source(&mut mix, k)
                } else {
                    long_source(&mut mix, k)
                };
                let mut min_stream = None;
                for (select_name, select) in ENCODE_SELECTS {
                    let encoder = Encoder::with_table(k, table.clone())
                        .expect("valid K")
                        .with_case_select(select);
                    let encoded = encoder.encode_stream(&src);
                    for (count, n) in case_counts.iter_mut().zip(encoded.stats().case_counts) {
                        *count += n;
                    }
                    match &min_stream {
                        None => min_stream = Some(encoded.stream().clone()),
                        Some(min) => power_aware_differs += usize::from(min != encoded.stream()),
                    }
                    // Chunk boundaries are invisible wherever they fall in
                    // a word: the first split at every offset, then 64-trit
                    // chunks.
                    for first in 0..64 {
                        let first = first.min(src.len());
                        let rest = ninec_testdata::slice::Chunks::new(
                            src.slice_view(first, src.len()),
                            64,
                        );
                        let chunked = encoder
                            .encode_chunked(std::iter::once(src.slice_view(0, first)).chain(rest));
                        assert_eq!(
                            chunked, encoded,
                            "{name}/k{k}/{select_name}/{seed}: first split at {first}"
                        );
                    }
                    outcomes.push((
                        format!("encode/{name}/k{k}/{select_name}/{seed}"),
                        render_encoded(&encoded),
                    ));
                }
            }
            for seed in 0..4 {
                let src = long_source(&mut mix, k);
                for threads in [1, 2] {
                    let bytes = Engine::builder()
                        .threads(threads)
                        .segment_bits(5 * k + k / 2)
                        .table(table.clone())
                        .build()
                        .encode_frame(k, &src)
                        .expect("frame encodes");
                    outcomes.push((
                        format!("frame/{name}/k{k}/t{threads}/{seed}"),
                        format!("{bytes:?}"),
                    ));
                }
            }
        }
    }
    for (i, n) in case_counts.into_iter().enumerate() {
        assert!(n >= 100, "case C{} chosen only {n} times", i + 1);
    }
    assert!(
        power_aware_differs >= 100,
        "PowerAware differs from MinSize on only {power_aware_differs} inputs"
    );
    assert!(outcomes.len() >= 2000, "{} inputs", outcomes.len());
    check_outcomes("outcomes_encode.txt", &outcomes);
}
