//! The 9C code itself behind the baseline [`TestDataCodec`] interface.
//!
//! The comparison harness treats 9C as just another column of Table IV;
//! this adapter lets it dispatch through the same trait-object registry as
//! the baselines instead of hand-calling [`ninec::Encoder`]. Unlike the
//! fill-based baselines, 9C's decode preserves the leftover don't-cares of
//! the source.

use crate::codec::{CodecStream, Payload, TestDataCodec};
use ninec::encode::{Encoder, InvalidBlockSize};
use ninec::engine::Engine;
use ninec::{DecodeError, EncodeFrameError};
use ninec_testdata::trit::TritVec;

/// The nine-coded compression technique as a [`TestDataCodec`].
///
/// # Examples
///
/// ```
/// use ninec_baselines::codec::TestDataCodec;
/// use ninec_baselines::nine_coded::NineCoded;
/// use ninec_testdata::trit::TritVec;
///
/// let ninec = NineCoded::new(8)?;
/// let stream: TritVec = "XXXXXXXX0000XXXX".repeat(4).parse()?;
/// assert!(ninec.compression_ratio(&stream) > 50.0);
/// let enc = ninec.encode_stream(&stream);
/// assert_eq!(ninec.decode_stream(&enc)?.len(), stream.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct NineCoded {
    encoder: Encoder,
    parity: Option<(u8, u8)>,
}

impl NineCoded {
    /// Creates the adapter for block size `k`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBlockSize`] if `k` is odd or below 4.
    pub fn new(k: usize) -> Result<Self, InvalidBlockSize> {
        Ok(Self {
            encoder: Encoder::new(k)?,
            parity: None,
        })
    }

    /// Wraps a configured encoder (custom table or case selection).
    pub fn with_encoder(encoder: Encoder) -> Self {
        Self {
            encoder,
            parity: None,
        }
    }

    /// Emits erasure-coded v3 frames: every interleaved group of `g` data
    /// segments gets `r` GF(256) parity segments, so up to `r` lost
    /// segments per group rebuild bit-exact at decode time. `r = 0`
    /// disables parity (plain v2 frames, the default). The geometry is a
    /// straight pass-through to [`Engine::parity`] — invalid values
    /// surface as [`EncodeFrameError::Parity`] from
    /// [`encode_frame`](NineCoded::encode_frame).
    #[must_use]
    pub fn parity(mut self, g: u8, r: u8) -> Self {
        self.parity = if r == 0 { None } else { Some((g, r)) };
        self
    }

    /// Block size `K`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.encoder.k()
    }

    /// Compresses `stream` into a self-describing `9CSF` segment frame,
    /// encoding segments concurrently on `threads` workers — the real
    /// framed container (unlike the generic
    /// [`TestDataCodec::encode_segmented`] path, which shards into
    /// in-memory [`CodecStream`]s). The bytes are independent of the
    /// thread count.
    ///
    /// # Errors
    ///
    /// [`EncodeFrameError::Frame`] when a segment overflows the `9CSF`
    /// header's `u32` fields (a > 4 Gi-trit segment); the block size
    /// itself was validated at construction, so
    /// [`EncodeFrameError::InvalidBlockSize`] cannot occur here.
    pub fn encode_frame(
        &self,
        stream: &TritVec,
        threads: usize,
        segment_bits: usize,
    ) -> Result<Vec<u8>, EncodeFrameError> {
        self.engine(threads, segment_bits)
            .encode_frame(self.k(), stream)
    }

    /// Decodes a `9CSF` frame produced by
    /// [`encode_frame`](NineCoded::encode_frame), sharding segments across
    /// `threads` workers.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`] on corrupt, truncated or hostile frames —
    /// never panics.
    pub fn decode_frame(&self, bytes: &[u8], threads: usize) -> Result<TritVec, DecodeError> {
        self.engine(threads, ninec::engine::DEFAULT_SEGMENT_BITS)
            .decode_frame(bytes)
    }

    fn engine(&self, threads: usize, segment_bits: usize) -> Engine {
        let mut builder = Engine::builder()
            .threads(threads)
            .segment_bits(segment_bits)
            .table(self.encoder.table().clone());
        if let Some((g, r)) = self.parity {
            builder = builder.parity(g, r);
        }
        builder.build()
    }
}

impl TestDataCodec for NineCoded {
    fn name(&self) -> &str {
        "9C"
    }

    fn encode_stream(&self, stream: &TritVec) -> CodecStream {
        let enc = self.encoder.encode_stream(stream);
        CodecStream::new(enc.source_len(), Payload::NineC(enc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_block_sizes() {
        assert!(NineCoded::new(3).is_err());
        assert!(NineCoded::new(0).is_err());
        assert_eq!(NineCoded::new(8).unwrap().k(), 8);
    }

    #[test]
    fn matches_the_core_encoder_bit_for_bit() {
        let stream: TritVec = "0X0X0X1XX01110000000001XXXX10X0X".parse().unwrap();
        let adapter = NineCoded::new(8).unwrap();
        let direct = Encoder::new(8).unwrap().encode_stream(&stream);
        let via_trait = adapter.encode_stream(&stream);
        assert_eq!(via_trait.compressed_bits(), direct.compressed_len());
        assert_eq!(
            adapter.compression_ratio(&stream),
            direct.compression_ratio()
        );
    }

    #[test]
    fn frame_roundtrip_is_thread_count_independent() {
        let stream: TritVec = "0X0X0X1XX01110000000001XXXX10X0X"
            .repeat(16)
            .parse()
            .unwrap();
        let adapter = NineCoded::new(8).unwrap();
        let serial = adapter.encode_frame(&stream, 1, 128).unwrap();
        for threads in [2usize, 8] {
            assert_eq!(adapter.encode_frame(&stream, threads, 128).unwrap(), serial);
        }
        let back = adapter.decode_frame(&serial, 4).unwrap();
        assert_eq!(back.len(), stream.len());
        for i in 0..stream.len() {
            let s = stream.get(i).unwrap();
            if s.is_care() {
                assert_eq!(Some(s), back.get(i), "care bit {i}");
            }
        }
        // Hostile bytes are typed errors, never panics.
        assert!(adapter.decode_frame(b"garbage", 2).is_err());
        assert!(adapter
            .decode_frame(&serial[..serial.len() - 1], 2)
            .is_err());
    }

    #[test]
    fn parity_passthrough_repairs_a_lost_segment() {
        let stream: TritVec = "0X0X0X1XX01110000000001XXXX10X0X"
            .repeat(16)
            .parse()
            .unwrap();
        let plain = NineCoded::new(8).unwrap();
        let protected = NineCoded::new(8).unwrap().parity(2, 1);
        let v2 = plain.encode_frame(&stream, 1, 128).unwrap();
        let v3 = protected.encode_frame(&stream, 1, 128).unwrap();
        assert!(v3.len() > v2.len(), "parity adds overhead");
        let clean = protected.decode_frame(&v3, 2).unwrap();

        // Corrupt one payload byte of the first data segment.
        let mut bad = v3.clone();
        bad[ninec::engine::frame::HEADER_BYTES_V3 + ninec::engine::frame::SEGMENT_HEADER_BYTES] ^=
            0x55;
        assert!(protected.decode_frame(&bad, 2).is_err(), "strict rejects");
        let outcome = ninec::DecodeSession::new()
            .threads(2)
            .decode_frame(&bad, ninec::Policy::Repair)
            .unwrap();
        assert!(outcome.is_lossless(), "{:?}", outcome.report);
        assert_eq!(outcome.trits, clean, "repair is bit-exact");

        // `r = 0` keeps emitting plain v2 bytes.
        let degenerate = NineCoded::new(8).unwrap().parity(4, 0);
        assert_eq!(degenerate.encode_frame(&stream, 1, 128).unwrap(), v2);
    }

    #[test]
    fn decode_preserves_leftover_x() {
        // At K=8 the left half "01X0" is a mismatch and ships verbatim, X
        // included; the right half is uniform and gets bound to ones.
        let stream: TritVec = "01X01111".parse().unwrap();
        let adapter = NineCoded::new(8).unwrap();
        let back = adapter
            .decode_stream(&adapter.encode_stream(&stream))
            .unwrap();
        assert_eq!(back.to_string(), "01X01111");
    }
}
