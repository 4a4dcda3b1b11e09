//! The 9C code itself behind the baseline [`TestDataCodec`] interface.
//!
//! The comparison harness treats 9C as just another column of Table IV;
//! this adapter lets it dispatch through the same trait-object registry as
//! the baselines instead of hand-calling [`ninec::Encoder`]. Unlike the
//! fill-based baselines, 9C's decode preserves the leftover don't-cares of
//! the source.

use crate::codec::{CodecStream, Payload, TestDataCodec};
use ninec::encode::{Encoder, InvalidBlockSize};
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
        })
    }

    /// Wraps a configured encoder (custom table or case selection).
    pub fn with_encoder(encoder: Encoder) -> Self {
        Self { encoder }
    }

    /// Block size `K`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.encoder.k()
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
