//! Differential suite for the sharded multi-core engine.
//!
//! The engine must be an *invisible* parallelization: for every block
//! size, segment geometry and thread count, `Engine::encode` is
//! bit-identical to the serial `Encoder::encode_stream`, and `9CSF` frame
//! bytes are independent of the thread count. Strict decode, which
//! writes every segment straight into the frame's output, equals the
//! serial decode exactly, `X` positions included, and so do repair and
//! salvage, which decode in place through the same jobs, outside the
//! damage map's `X` range. Corrupt frames — bad magic, flipped CRC
//! bytes, truncation, arbitrary byte salad — must come back as typed
//! [`DecodeError`]s, never panics.

use ninec::encode::Encoder;
use ninec::engine::{frame, Engine, FrameError, FrameReader};
use ninec::session::DecodeSession;
use ninec::{DecodeError, Policy};
use ninec_testdata::trit::{Trit, TritVec};
use proptest::prelude::*;
use std::io::Read;

/// Block sizes the differential sweep covers (issue spec).
const K_DIFF: [usize; 4] = [4, 8, 16, 32];

/// Thread counts the sweep covers (1 = the serial in-caller fallback).
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn arb_trit() -> impl Strategy<Value = Trit> {
    prop_oneof![
        3 => Just(Trit::X),
        1 => Just(Trit::Zero),
        1 => Just(Trit::One),
    ]
}

fn arb_stream(max_len: usize) -> impl Strategy<Value = TritVec> {
    proptest::collection::vec(arb_trit(), 0..max_len).prop_map(TritVec::from_iter)
}

/// Segment geometries for block size `k`: a single block per segment, a
/// deliberately ragged size (not a multiple of `k`, so the builder's
/// block-alignment and the tail segment both get exercised), and a size
/// so large the whole stream is one segment (4096 blocks).
fn segment_sweeps(k: usize) -> [usize; 3] {
    [k, 3 * k + 1, 4096 * k]
}

/// Segment sizes for the in-place property, before block alignment: one
/// block, a ragged size, sizes just under and just over a word, and a
/// long one. Most of them start and end segments inside an output word.
fn in_place_sweeps(k: usize) -> [usize; 5] {
    [k, 3 * k + 1, 60, 68, 1000]
}

/// A reader handing out at most `chunk` bytes per `read` call.
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

fn engine(threads: usize, segment_bits: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .segment_bits(segment_bits)
        .build()
}

/// A v3 engine with parity 4:1.
fn v3_engine(threads: usize, segment_bits: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .segment_bits(segment_bits)
        .parity(4, 1)
        .build()
}

/// `bytes` with the first payload byte of data segment `pick` (modulo
/// the data segments) flipped, or `None` when the frame has none.
fn flip_data_payload(bytes: &[u8], pick: usize) -> Option<Vec<u8>> {
    let plan = engine(1, 64).build_plan(bytes).unwrap();
    let n = plan.claimed_segments();
    if n == 0 {
        return None;
    }
    let at = plan.entries()[pick % n].byte_range().start + frame::SEGMENT_HEADER_BYTES;
    let mut bad = bytes.to_vec();
    bad[at] ^= 0x55;
    Some(bad)
}

proptest! {
    /// `Engine::encode` is bit-identical to the serial encoder — stream,
    /// stats, everything — for every (K, segment, threads) combination.
    #[test]
    fn parallel_encode_equals_serial(stream in arb_stream(700)) {
        for k in K_DIFF {
            let serial = Encoder::new(k).unwrap().encode_stream(&stream);
            for seg in segment_sweeps(k) {
                for threads in THREADS {
                    prop_assert_eq!(
                        &engine(threads, seg).encode(k, &stream).unwrap(),
                        &serial,
                        "K={} seg={} threads={}", k, seg, threads
                    );
                }
            }
        }
    }

    /// `9CSF` frame bytes are a pure function of (stream, K, segmenting):
    /// the thread count never shows through, and frames roundtrip through
    /// the session decoder preserving every care bit.
    #[test]
    fn frame_bytes_independent_of_threads(stream in arb_stream(500)) {
        for k in K_DIFF {
            for seg in segment_sweeps(k) {
                let reference = engine(1, seg).encode_frame(k, &stream).unwrap();
                for threads in THREADS {
                    prop_assert_eq!(
                        &engine(threads, seg).encode_frame(k, &stream).unwrap(),
                        &reference,
                        "K={} seg={} threads={}", k, seg, threads
                    );
                }
                for threads in THREADS {
                    let back = DecodeSession::new()
                        .threads(threads)
                        .decode_frame(&reference, ninec::Policy::Strict)
                        .unwrap()
                        .trits;
                    prop_assert_eq!(back.len(), stream.len());
                    for i in 0..stream.len() {
                        let s = stream.get(i).unwrap();
                        if s.is_care() {
                            prop_assert_eq!(Some(s), back.get(i), "care bit {}", i);
                        }
                    }
                }
            }
        }
    }

    /// Strict decode writes each segment straight into the frame's
    /// output, the words its neighbours share merged after the join: in
    /// memory, on a plan and streaming (64 KiB and 7-byte reads), the
    /// output equals the serial stream's decode exactly — `X` positions
    /// included — at every K, segment size and thread count. Repair and
    /// salvage decode in place through the same jobs: with one payload
    /// byte of data segment `pick` flipped, salvage equals the serial
    /// decode with exactly the damage map's trit range set to `X`, also
    /// where that range shares output words with its neighbours, and
    /// repair of a v3 4:1 frame equals the serial decode.
    #[test]
    fn in_place_strict_decode_equals_the_serial_decode(
        stream in arb_stream(500),
        pick in any::<usize>(),
    ) {
        for k in K_DIFF {
            let encoded = Encoder::new(k).unwrap().encode_stream(&stream);
            let serial = DecodeSession::new().decode(&encoded).unwrap();
            for seg in in_place_sweeps(k) {
                let bytes = engine(1, seg).encode_frame(k, &stream).unwrap();
                let damaged = flip_data_payload(&bytes, pick);
                let damaged_v3 = flip_data_payload(
                    &v3_engine(1, seg).encode_frame(k, &stream).unwrap(),
                    pick,
                );
                for threads in [1usize, 2, 3, 8] {
                    let eng = engine(threads, seg);
                    prop_assert_eq!(
                        &eng.decode_frame(&bytes).unwrap(),
                        &serial,
                        "decode_frame K={} seg={} threads={}", k, seg, threads
                    );
                    let plan = eng.build_plan(&bytes).unwrap();
                    prop_assert_eq!(
                        &eng.execute_plan(&plan, Policy::Strict).unwrap().trits,
                        &serial,
                        "execute_plan K={} seg={} threads={}", k, seg, threads
                    );
                    for chunk in [64 * 1024, 7] {
                        let mut reader = FrameReader::new(Dribble { bytes: &bytes, chunk });
                        prop_assert_eq!(
                            &eng.decode_stream_reader(&mut reader).unwrap(),
                            &serial,
                            "stream K={} seg={} threads={} chunk={}", k, seg, threads, chunk
                        );
                    }
                    if let Some(damaged) = &damaged {
                        let plan = eng.build_plan(damaged).unwrap();
                        let report = eng.execute_plan(&plan, Policy::Salvage).unwrap();
                        prop_assert_eq!(report.damaged.len(), 1);
                        let mut expect = serial.clone();
                        for i in report.damaged[0].trit_range.clone() {
                            expect.set(i, Trit::X);
                        }
                        prop_assert_eq!(
                            &report.trits,
                            &expect,
                            "salvage K={} seg={} threads={}", k, seg, threads
                        );
                    }
                    if let Some(damaged) = &damaged_v3 {
                        let eng = v3_engine(threads, seg);
                        let plan = eng.build_plan(damaged).unwrap();
                        prop_assert_eq!(
                            &eng.execute_plan(&plan, Policy::Repair).unwrap().trits,
                            &serial,
                            "repair K={} seg={} threads={}", k, seg, threads
                        );
                    }
                }
            }
        }
    }

    /// Arbitrary byte salad fed to the frame decoder is a typed error (or,
    /// vanishingly rarely, a valid frame) — never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        for threads in [1usize, 4] {
            let _ = engine(threads, 4096).decode_frame(&bytes);
        }
    }

    /// Single byte corruption of a valid frame: either caught as a typed
    /// error or still decodes to the promised length (flips confined to
    /// payload bits that survive the CRC are impossible — the CRC covers
    /// the payload — so any accepted decode is the untouched frame).
    #[test]
    fn corrupting_one_byte_never_panics(stream in arb_stream(300), pos in 0usize..1024, xor in 1u8..=255) {
        let bytes = engine(2, 64).encode_frame(8, &stream).unwrap();
        prop_assume!(!bytes.is_empty());
        let mut corrupt = bytes.clone();
        let i = pos % corrupt.len();
        corrupt[i] ^= xor;
        match engine(4, 64).decode_frame(&corrupt) {
            Ok(out) => prop_assert_eq!(out.len(), stream.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Every strict prefix of a valid frame is rejected with a typed
    /// error — truncation can never fabricate output.
    #[test]
    fn truncated_frames_are_typed_errors(stream in arb_stream(200)) {
        prop_assume!(!stream.is_empty());
        let bytes = engine(1, 48).encode_frame(8, &stream).unwrap();
        for cut in 0..bytes.len() {
            let err = engine(2, 48).decode_frame(&bytes[..cut]).unwrap_err();
            prop_assert!(
                matches!(
                    err,
                    DecodeError::TruncatedStream { .. } | DecodeError::Frame(_)
                ),
                "cut at {}: unexpected error {:?}", cut, err
            );
        }
    }
}

#[test]
fn bad_magic_bad_crc_and_truncation_are_distinct_typed_errors() {
    let stream: TritVec = "0X0X01X001X0101X111111110000X1111X0110XX"
        .repeat(12)
        .parse()
        .unwrap();
    let eng = engine(4, 160);
    let bytes = eng.encode_frame(8, &stream).unwrap();
    assert!(frame::is_frame(&bytes));

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'?';
    assert!(matches!(
        eng.decode_frame(&bad_magic),
        Err(DecodeError::Frame(FrameError::BadMagic))
    ));

    let mut bad_version = bytes.clone();
    bad_version[4] = 0x7f;
    assert!(matches!(
        eng.decode_frame(&bad_version),
        Err(DecodeError::Frame(FrameError::UnsupportedVersion {
            found: 0x7f
        }))
    ));

    let mut bad_crc = bytes.clone();
    let last = bad_crc.len() - 1;
    bad_crc[last] ^= 0x80;
    assert!(matches!(
        eng.decode_frame(&bad_crc),
        Err(DecodeError::Frame(FrameError::BadCrc { .. }))
    ));

    assert!(matches!(
        eng.decode_frame(&bytes[..bytes.len() - 1]),
        Err(DecodeError::TruncatedStream { .. })
    ));
}

/// The geometry floor of the issue spec: exactly one block per segment at
/// every K still agrees with the serial encoder, on a stream whose tail is
/// ragged (length not a multiple of any K in the sweep).
#[test]
fn one_block_segments_with_ragged_tail() {
    let stream: TritVec = "01X".repeat(211).parse().unwrap(); // 633 trits
    for k in K_DIFF {
        assert!(
            !stream.len().is_multiple_of(k),
            "tail must be ragged at K={k}"
        );
        let serial = Encoder::new(k).unwrap().encode_stream(&stream);
        for threads in THREADS {
            assert_eq!(
                engine(threads, k).encode(k, &stream).unwrap(),
                serial,
                "K={k} threads={threads}"
            );
        }
    }
}
