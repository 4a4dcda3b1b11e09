//! Differential and streaming-pipeline properties.
//!
//! The word-parallel kernels and the chunked streaming codec must be
//! *invisible* refactors: every path here is checked bit-for-bit against
//! the scalar per-symbol reference (`Encoder::encode_stream_scalar`,
//! `HalfClass::classify_scalar`) and against the one-shot API.

use ninec::block::HalfClass;
use ninec::decode::StreamDecoder;
use ninec::encode::Encoder;
use ninec::session::DecodeSession;
use ninec::stream::BitCounter;
use ninec_testdata::trit::{Trit, TritVec};
use proptest::prelude::*;

/// The K values the differential suite sweeps, 4 through 64.
const K_DIFF: [usize; 5] = [4, 8, 16, 32, 64];

/// The chunk sizes the streaming suite sweeps (issue spec).
const CHUNKS: [usize; 4] = [1, 7, 64, 4096];

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

/// Care-bit-preserving equivalence: every specified symbol of `src`
/// survives into `back` unchanged (X may bind either way).
fn assert_covers(src: &TritVec, back: &TritVec) {
    assert_eq!(src.len(), back.len());
    for i in 0..src.len() {
        let s = src.get(i).unwrap();
        if s.is_care() {
            assert_eq!(Some(s), back.get(i), "care bit {i} changed");
        }
    }
}

proptest! {
    /// Word-parallel `classify_range` agrees with the scalar reference on
    /// every subrange of arbitrary streams.
    #[test]
    fn classify_range_matches_scalar(stream in arb_stream(300),
                                     a in 0usize..300, b in 0usize..300) {
        let (from, to) = (a.min(b).min(stream.len()), a.max(b).min(stream.len()));
        let word = HalfClass::classify_slice(stream.as_slice(), from, to);
        let scalar =
            HalfClass::classify_scalar((from..to).map(|i| stream.get(i).unwrap()));
        prop_assert_eq!(word, scalar, "range {}..{} of {}", from, to, stream);
    }

    /// The word-parallel encoder is bit-identical to the scalar reference
    /// for every K in the differential sweep.
    #[test]
    fn word_encoder_matches_scalar_reference(stream in arb_stream(600)) {
        for k in K_DIFF {
            let encoder = Encoder::new(k).unwrap();
            prop_assert_eq!(
                encoder.encode_stream(&stream),
                encoder.encode_stream_scalar(&stream),
                "word and scalar encoders diverged at K={}", k
            );
        }
    }

    /// Chunk boundaries are invisible: feeding the stream through the
    /// streaming encoder in chunks of any size yields output bit-identical
    /// to the one-shot encoder.
    #[test]
    fn streaming_encoder_matches_oneshot(stream in arb_stream(600), k in 0..K_DIFF.len()) {
        let encoder = Encoder::new(K_DIFF[k]).unwrap();
        let oneshot = encoder.encode_stream(&stream);
        for chunk in CHUNKS {
            prop_assert_eq!(
                &encoder.encode_chunked(stream.chunks(chunk)),
                &oneshot,
                "chunk size {} changed the output", chunk
            );
        }
    }

    /// The streaming decoder reproduces the one-shot decode blockwise, for
    /// streams produced at every chunk size.
    #[test]
    fn streaming_decoder_roundtrips(stream in arb_stream(600), k in 0..K_DIFF.len()) {
        let encoder = Encoder::new(K_DIFF[k]).unwrap();
        for chunk in CHUNKS {
            let encoded = encoder.encode_chunked(stream.chunks(chunk));
            let mut out = TritVec::with_capacity(stream.len());
            let mut dec = StreamDecoder::new(
                encoded.stream().as_slice().iter(),
                encoded.k(),
                encoded.table().clone(),
                encoded.source_len(),
            )
            .unwrap();
            while dec.decode_block_into(&mut out).unwrap() > 0 {}
            prop_assert!(dec.is_done());
            prop_assert_eq!(&out, &DecodeSession::new().decode(&encoded).unwrap());
            assert_covers(&stream, &out);
        }
    }
}

/// A stream much larger than the chunk size roundtrips through the
/// streaming endpoints with codec state bounded by O(chunk + K): the
/// encoder buffers < K symbols between feeds (asserted in the core test
/// suite), the decoder holds one block, and here both endpoints run
/// against O(1) measurement sinks so nothing else accumulates.
#[test]
fn large_stream_roundtrips_through_small_chunks() {
    const CHUNK: usize = 64;
    let profile = ninec_testdata::gen::SyntheticProfile::new("large", 64, 1024, 0.6);
    let stream = profile.generate(0x9c).as_stream().clone(); // 65536 symbols
    assert!(
        stream.len() > 100 * CHUNK,
        "stream must dwarf the chunk size"
    );

    let encoder = Encoder::new(16).unwrap();

    // Size pass: a counting sink proves the encode side needs no output
    // buffer at all.
    let mut counter = BitCounter::default();
    let mut enc = encoder.stream_encoder(&mut counter);
    for chunk in stream.chunks(CHUNK) {
        enc.feed(chunk);
    }
    let totals = enc.finish();
    assert_eq!(totals.source_len, stream.len());

    // Materialized pass must agree with the one-shot encoder and the size
    // pass, then stream-decode back block by block.
    let encoded = encoder.encode_chunked(stream.chunks(CHUNK));
    assert_eq!(encoded.compressed_len() as u64, counter.bits());
    assert_eq!(encoded, encoder.encode_stream(&stream));

    let mut out = TritVec::with_capacity(stream.len());
    let mut dec = StreamDecoder::new(
        encoded.stream().as_slice().iter(),
        encoded.k(),
        encoded.table().clone(),
        encoded.source_len(),
    )
    .unwrap();
    let mut largest_block = 0usize;
    loop {
        let n = dec.decode_block_into(&mut out).unwrap();
        if n == 0 {
            break;
        }
        largest_block = largest_block.max(n);
    }
    assert!(
        largest_block <= 16,
        "decoder must emit at most one block per step"
    );
    assert_eq!(out.len(), stream.len());
    assert_covers(&stream, &out);
}
