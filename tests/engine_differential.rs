//! Differential suite for the sharded multi-core engine.
//!
//! The engine must be an *invisible* parallelization: for every block
//! size, segment geometry and thread count, `Engine::encode` is
//! bit-identical to the serial `Encoder::encode_stream`, and `9CSF` frame
//! bytes are independent of the thread count. Corrupt frames — bad magic,
//! flipped CRC bytes, truncation, arbitrary byte salad — must come back as
//! typed [`DecodeError`]s, never panics.

use ninec::encode::Encoder;
use ninec::engine::{frame, Engine, FrameError};
use ninec::session::DecodeSession;
use ninec::DecodeError;
use ninec_testdata::trit::{Trit, TritVec};
use proptest::prelude::*;

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

fn engine(threads: usize, segment_bits: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .segment_bits(segment_bits)
        .build()
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
