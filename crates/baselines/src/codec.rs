//! Common interface for the baseline test-data compression codes.
//!
//! [`TestDataCodec`] is the uniform entry point the Table IV harness
//! dispatches through: [`encode_stream`](TestDataCodec::encode_stream)
//! produces a self-describing [`CodecStream`] and
//! [`decode_stream`](TestDataCodec::decode_stream) reconstructs the test
//! data from it, so every code — the run-length family, the Huffman
//! family, the dictionary code, and 9C itself (via
//! [`crate::nine_coded::NineCoded`]) — roundtrips behind one trait object.
//! [`crate::registry::table4_registry`] returns the full Table IV column
//! set as `Box<dyn TestDataCodec>`.
//!
//! A [`CodecStream`] carries whatever decoder model its code needs
//! (Golomb's group size, VIHC's Huffman code, the dictionary contents, 9C's
//! code table), mirroring how the on-chip decompressors of the literature
//! hold that state in hardware rather than in the ATE stream.

use crate::arl::AlternatingRunLength;
use crate::dict::{DictionaryDecodeError, DictionaryEncoded};
use crate::efdr::Efdr;
use crate::fdr::{Fdr, RunLengthDecodeError};
use crate::golomb::Golomb;
use crate::selhuff::{SelectiveHuffmanDecodeError, SelectiveHuffmanEncoded};
use crate::vihc::{VihcDecodeError, VihcEncoded};
use ninec_testdata::bits::BitVec;
use ninec_testdata::trit::{Trit, TritVec};
use std::fmt;

/// A baseline test-data compression code, as compared against 9C in the
/// paper's Table IV.
///
/// The uniform entry points are
/// [`encode_stream`](TestDataCodec::encode_stream) /
/// [`decode_stream`](TestDataCodec::decode_stream) (a self-describing
/// roundtrip) and [`compressed_size`](TestDataCodec::compressed_size)
/// (enough to reproduce the compression-ratio comparisons); each concrete
/// codec additionally exposes its own typed encode/decode API, which the
/// test suites use for error-path verification.
///
/// The `Send + Sync` supertrait lets the default *segmented* methods
/// ([`encode_segmented`](TestDataCodec::encode_segmented) /
/// [`decode_segmented`](TestDataCodec::decode_segmented)) shard one stream
/// across the engine's executor — every codec in this crate is a
/// plain owned-data struct, so the bound costs nothing.
pub trait TestDataCodec: Send + Sync {
    /// Short display name (e.g. `"FDR"`).
    fn name(&self) -> &str;

    /// Compresses `stream` (a test-cube stream; the codec applies its own
    /// preferred don't-care fill) into a self-describing [`CodecStream`].
    fn encode_stream(&self, stream: &TritVec) -> CodecStream;

    /// Parallel default-method path: partitions `stream` into segments of
    /// `segment_bits` source trits (the same segment geometry as
    /// [`ninec::engine::Engine`]) and encodes each independently on the
    /// engine's executor.
    ///
    /// Determinism: segments are keyed by index and reassembled in source
    /// order, so the result is independent of `threads`. Each segment is a
    /// self-contained [`CodecStream`] — exactly the paper's Fig. 4(c)
    /// picture of one encoded sub-stream per on-chip decoder.
    fn encode_segmented(
        &self,
        stream: &TritVec,
        threads: usize,
        segment_bits: usize,
    ) -> SegmentedStream {
        let seg_len = segment_bits.max(1);
        let ranges: Vec<(usize, usize)> = (0..stream.len().div_ceil(seg_len))
            .map(|i| (i * seg_len, ((i + 1) * seg_len).min(stream.len())))
            .collect();
        let segments = ninec::engine::exec::map_indexed(threads, ranges.len(), |i| {
            let (start, end) = ranges[i];
            let mut sub = TritVec::with_capacity(end - start);
            sub.extend_from_slice(stream.slice_view(start, end));
            self.encode_stream(&sub)
        });
        SegmentedStream { segments }
    }

    /// Decodes a [`SegmentedStream`] produced by
    /// [`encode_segmented`](TestDataCodec::encode_segmented), decoding
    /// segments concurrently and concatenating them in stream order.
    ///
    /// # Errors
    ///
    /// The first [`CodecDecodeError`] in segment order, if any segment is
    /// truncated or corrupt.
    fn decode_segmented(
        &self,
        encoded: &SegmentedStream,
        threads: usize,
    ) -> Result<TritVec, CodecDecodeError> {
        let parts = ninec::engine::exec::map_indexed(threads, encoded.segments.len(), |i| {
            self.decode_stream(&encoded.segments[i])
        });
        let mut out = TritVec::with_capacity(encoded.source_len());
        for part in parts {
            out.extend_from_tritvec(&part?);
        }
        Ok(out)
    }

    /// Reconstructs test data from an [`encode_stream`](TestDataCodec::encode_stream)
    /// result.
    ///
    /// The reconstruction is the codec's canonical one: the fill-based
    /// baselines return the *filled* (fully specified) source, while 9C
    /// preserves its leftover don't-cares. In every case each care bit of
    /// the original stream is reproduced exactly.
    ///
    /// # Errors
    ///
    /// Returns [`CodecDecodeError`] on truncated or corrupt streams.
    ///
    /// Successful decodes record their wall time into the per-codec
    /// `ninec.baseline.<name>.decode_ns` histogram (a no-op while
    /// runtime telemetry is off).
    fn decode_stream(&self, encoded: &CodecStream) -> Result<TritVec, CodecDecodeError> {
        let t0 = ninec_obs::runtime_enabled().then(std::time::Instant::now);
        let out = encoded.decode();
        if let (Some(t0), Ok(_)) = (t0, &out) {
            ninec_obs::histogram(&format!("ninec.baseline.{}.decode_ns", self.name()))
                .record(t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Size in bits of the compressed form of `stream`.
    fn compressed_size(&self, stream: &TritVec) -> usize {
        self.encode_stream(stream).compressed_bits()
    }

    /// Compression ratio in percent against `|T_D| = stream.len()`.
    ///
    /// By convention the ratio of the **empty stream is 0.0** (neither
    /// compression nor expansion): every codec in this crate produces 0
    /// compressed bits for 0 input bits, and `0/0` is pinned to zero
    /// rather than NaN so sweep maxima and table averages stay finite.
    ///
    /// This is the Table IV harness entry point, so it doubles as the
    /// per-codec measurement site: encode wall time goes to the
    /// `ninec.baseline.<name>.encode_ns` histogram and the resulting
    /// ratio to the `ninec.baseline.<name>.cr_pct` gauge (last write
    /// wins — the gauge reflects the most recent circuit compared).
    fn compression_ratio(&self, stream: &TritVec) -> f64 {
        if stream.is_empty() {
            return 0.0;
        }
        let td = stream.len() as f64;
        let t0 = ninec_obs::runtime_enabled().then(std::time::Instant::now);
        let size = self.compressed_size(stream);
        let cr = (td - size as f64) / td * 100.0;
        if let Some(t0) = t0 {
            let reg = ninec_obs::global();
            reg.histogram(&format!("ninec.baseline.{}.encode_ns", self.name()))
                .record(t0.elapsed().as_nanos() as u64);
            reg.gauge(&format!("ninec.baseline.{}.cr_pct", self.name()))
                .set(cr);
        }
        cr
    }
}

/// A stream sharded into independently decodable [`CodecStream`]
/// segments — the output of [`TestDataCodec::encode_segmented`].
///
/// Segment order is source order; concatenating the decoded segments
/// reproduces the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedStream {
    segments: Vec<CodecStream>,
}

impl SegmentedStream {
    /// Assembles a stream from hand-built segments — the mutation entry
    /// point for robustness harnesses (drop, duplicate, reorder or splice
    /// segments between codecs). [`TestDataCodec::decode_segmented`] must
    /// answer any such concoction with a typed error or a decode of
    /// whatever the segments claim — never a panic.
    #[must_use]
    pub fn from_segments(segments: Vec<CodecStream>) -> Self {
        Self { segments }
    }

    /// The per-segment compressed streams, in source order.
    #[must_use]
    pub fn segments(&self) -> &[CodecStream] {
        &self.segments
    }

    /// Total source trits covered, `|T_D|`.
    #[must_use]
    pub fn source_len(&self) -> usize {
        self.segments.iter().map(CodecStream::source_len).sum()
    }

    /// Total ATE payload bits across segments, `|T_E|`.
    #[must_use]
    pub fn compressed_bits(&self) -> usize {
        self.segments.iter().map(CodecStream::compressed_bits).sum()
    }
}

/// A self-describing compressed stream: the ATE payload plus whatever
/// decoder model the code keeps on chip.
///
/// Produced by [`TestDataCodec::encode_stream`]; decoded by
/// [`CodecStream::decode`] (or the trait's
/// [`decode_stream`](TestDataCodec::decode_stream), which dispatches
/// here).
///
/// # Examples
///
/// ```
/// use ninec_baselines::codec::TestDataCodec;
/// use ninec_baselines::fdr::Fdr;
/// use ninec_testdata::trit::TritVec;
///
/// let stream: TritVec = "000000010000001".parse()?;
/// let enc = Fdr::new().encode_stream(&stream);
/// assert!(enc.compressed_bits() < stream.len());
/// let back = enc.decode()?;
/// assert_eq!(back.len(), stream.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CodecStream {
    source_len: usize,
    payload: Payload,
}

/// The per-code payload + decoder model. `pub(crate)` so each codec module
/// constructs its own variant; consumers only see [`CodecStream`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Payload {
    /// FDR-coded 0-runs of the 0-filled source.
    Fdr(BitVec),
    /// Golomb-coded 0-runs; `b` is the group size the decoder needs.
    Golomb {
        /// Group size (validated power of two at encode time).
        b: u64,
        /// The ATE bit stream.
        bits: BitVec,
    },
    /// EFDR-coded runs of both polarities.
    Efdr(BitVec),
    /// Alternating run-length coded runs of the MT-filled source.
    Arl(BitVec),
    /// VIHC stream plus its Huffman decoder model.
    Vihc(VihcEncoded),
    /// Selective-Huffman stream plus dictionary and code.
    SelHuff(SelectiveHuffmanEncoded),
    /// Fixed-index dictionary stream plus the dictionary.
    Dict(DictionaryEncoded),
    /// A 9C-encoded stream (carries `K` and the code table).
    NineC(ninec::Encoded),
}

impl CodecStream {
    pub(crate) fn new(source_len: usize, payload: Payload) -> Self {
        Self {
            source_len,
            payload,
        }
    }

    /// Original (unpadded) length of the source stream, `|T_D|`.
    #[must_use]
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// Size of the ATE payload in bits, `|T_E|`.
    ///
    /// On-chip decoder state (Huffman tables, dictionaries, the 9C code
    /// table) is *not* counted, matching the accounting of the literature.
    #[must_use]
    pub fn compressed_bits(&self) -> usize {
        match &self.payload {
            Payload::Fdr(bits) | Payload::Efdr(bits) | Payload::Arl(bits) => bits.len(),
            Payload::Golomb { bits, .. } => bits.len(),
            Payload::Vihc(enc) => enc.bits.len(),
            Payload::SelHuff(enc) => enc.bits.len(),
            Payload::Dict(enc) => enc.bits.len(),
            Payload::NineC(enc) => enc.compressed_len(),
        }
    }

    /// Copy of this stream claiming a different source length — the
    /// header/payload-mismatch case of the robustness harness.
    #[must_use]
    pub fn with_source_len(&self, source_len: usize) -> Self {
        Self {
            source_len,
            payload: self.payload.clone(),
        }
    }

    /// Copy with the ATE payload cut to at most `keep` symbols (bits for
    /// the binary codes, trits for 9C) — models a transfer that stopped
    /// short. The claimed source length is unchanged, so decoding should
    /// report truncation.
    #[must_use]
    pub fn truncated(&self, keep: usize) -> Self {
        let mut out = self.clone();
        match &mut out.payload {
            Payload::Fdr(bits) | Payload::Efdr(bits) | Payload::Arl(bits) => bits.truncate(keep),
            Payload::Golomb { bits, .. } => bits.truncate(keep),
            Payload::Vihc(enc) => enc.bits.truncate(keep),
            Payload::SelHuff(enc) => enc.bits.truncate(keep),
            Payload::Dict(enc) => enc.bits.truncate(keep),
            Payload::NineC(enc) => {
                let mut stream = enc.stream().clone();
                stream.truncate(keep);
                out.payload = Payload::NineC(enc.clone().with_stream(stream));
            }
        }
        out
    }

    /// Copy with payload symbol `i % len` inverted (bit flip for the
    /// binary codes; for 9C the trit cycles `0→1→X→0`, hitting both the
    /// wrong-care and lost-care corruption classes). No-op on an empty
    /// payload.
    #[must_use]
    pub fn with_flipped_symbol(&self, i: usize) -> Self {
        fn flip_bits(bits: &mut BitVec, i: usize) {
            if !bits.is_empty() {
                let at = i % bits.len();
                let cur = bits.get(at).unwrap_or(false);
                bits.set(at, !cur);
            }
        }
        let mut out = self.clone();
        match &mut out.payload {
            Payload::Fdr(bits) | Payload::Efdr(bits) | Payload::Arl(bits) => flip_bits(bits, i),
            Payload::Golomb { bits, .. } => flip_bits(bits, i),
            Payload::Vihc(enc) => flip_bits(&mut enc.bits, i),
            Payload::SelHuff(enc) => flip_bits(&mut enc.bits, i),
            Payload::Dict(enc) => flip_bits(&mut enc.bits, i),
            Payload::NineC(enc) => {
                let mut stream = enc.stream().clone();
                if !stream.is_empty() {
                    let at = i % stream.len();
                    let next = match stream.get(at) {
                        Some(Trit::Zero) => Trit::One,
                        Some(Trit::One) => Trit::X,
                        _ => Trit::Zero,
                    };
                    stream.set(at, next);
                }
                out.payload = Payload::NineC(enc.clone().with_stream(stream));
            }
        }
        out
    }

    /// Reconstructs the test data (see
    /// [`TestDataCodec::decode_stream`] for the fill semantics).
    ///
    /// # Errors
    ///
    /// Returns [`CodecDecodeError`] wrapping the underlying typed error on
    /// truncated or corrupt streams.
    pub fn decode(&self) -> Result<TritVec, CodecDecodeError> {
        let n = self.source_len;
        let out = match &self.payload {
            Payload::Fdr(bits) => TritVec::from(&Fdr::new().decompress(bits, n)?),
            Payload::Golomb { b, bits } => {
                let golomb = Golomb::new(*b).expect("group size validated at encode time");
                TritVec::from(&golomb.decompress(bits, n)?)
            }
            Payload::Efdr(bits) => TritVec::from(&Efdr::new().decompress(bits, n)?),
            Payload::Arl(bits) => TritVec::from(&AlternatingRunLength::new().decompress(bits, n)?),
            Payload::Vihc(enc) => TritVec::from(&enc.decode()?),
            Payload::SelHuff(enc) => TritVec::from(&enc.decode()?),
            Payload::Dict(enc) => TritVec::from(&enc.decode()?),
            Payload::NineC(enc) => ninec::DecodeSession::new().decode(enc)?,
        };
        // The model-carrying payloads (VIHC, SelHuff, Dict, 9C) decode to
        // the length *their own* decoder model claims; a mutated stream
        // header that disagrees is corruption, not a shorter answer.
        if out.len() != n {
            return Err(CodecDecodeError::LengthMismatch {
                claimed: n,
                decoded: out.len(),
            });
        }
        Ok(out)
    }
}

/// Error decoding a [`CodecStream`], wrapping the codec's typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecDecodeError {
    /// A run-length code (FDR, Golomb, EFDR, ARL) failed.
    RunLength(RunLengthDecodeError),
    /// VIHC failed.
    Vihc(VihcDecodeError),
    /// Selective Huffman failed.
    SelHuff(SelectiveHuffmanDecodeError),
    /// The dictionary code failed.
    Dict(DictionaryDecodeError),
    /// 9C failed.
    NineC(ninec::DecodeError),
    /// The payload decoded, but to a different length than the stream's
    /// `source_len` header claims — a header/payload mismatch.
    LengthMismatch {
        /// The `source_len` the stream header claims.
        claimed: usize,
        /// What the payload actually decoded to.
        decoded: usize,
    },
}

impl fmt::Display for CodecDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecDecodeError::RunLength(e) => write!(f, "run-length decode: {e}"),
            CodecDecodeError::Vihc(e) => write!(f, "vihc decode: {e}"),
            CodecDecodeError::SelHuff(e) => write!(f, "selective-huffman decode: {e}"),
            CodecDecodeError::Dict(e) => write!(f, "dictionary decode: {e}"),
            CodecDecodeError::NineC(e) => write!(f, "9c decode: {e}"),
            CodecDecodeError::LengthMismatch { claimed, decoded } => write!(
                f,
                "stream header claims {claimed} source trits but the payload decodes to {decoded}"
            ),
        }
    }
}

impl std::error::Error for CodecDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecDecodeError::RunLength(e) => Some(e),
            CodecDecodeError::Vihc(e) => Some(e),
            CodecDecodeError::SelHuff(e) => Some(e),
            CodecDecodeError::Dict(e) => Some(e),
            CodecDecodeError::NineC(e) => Some(e),
            CodecDecodeError::LengthMismatch { .. } => None,
        }
    }
}

impl From<RunLengthDecodeError> for CodecDecodeError {
    fn from(e: RunLengthDecodeError) -> Self {
        CodecDecodeError::RunLength(e)
    }
}

impl From<VihcDecodeError> for CodecDecodeError {
    fn from(e: VihcDecodeError) -> Self {
        CodecDecodeError::Vihc(e)
    }
}

impl From<SelectiveHuffmanDecodeError> for CodecDecodeError {
    fn from(e: SelectiveHuffmanDecodeError) -> Self {
        CodecDecodeError::SelHuff(e)
    }
}

impl From<DictionaryDecodeError> for CodecDecodeError {
    fn from(e: DictionaryDecodeError) -> Self {
        CodecDecodeError::Dict(e)
    }
}

impl From<ninec::DecodeError> for CodecDecodeError {
    fn from(e: ninec::DecodeError) -> Self {
        CodecDecodeError::NineC(e)
    }
}

/// A parameter sweep behind the codec interface: encodes with every
/// candidate and keeps the smallest stream.
///
/// Table IV's VIHC, Golomb and dictionary columns are "best over a
/// parameter sweep"; `BestOf` makes those columns ordinary registry
/// entries.
///
/// # Examples
///
/// ```
/// use ninec_baselines::codec::{BestOf, TestDataCodec};
/// use ninec_baselines::golomb::Golomb;
/// use ninec_testdata::trit::TritVec;
///
/// let sweep = BestOf::new(
///     "Golomb",
///     [2u64, 4, 8].map(|b| Golomb::new(b).unwrap()).to_vec(),
/// );
/// let sparse: TritVec = format!("{}1", "0".repeat(30)).parse()?;
/// assert!(sweep.compressed_size(&sparse) <= Golomb::new(2)?.compressed_size(&sparse));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BestOf<C> {
    name: String,
    candidates: Vec<C>,
}

impl<C: TestDataCodec> BestOf<C> {
    /// Wraps `candidates` under display name `name`.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn new(name: impl Into<String>, candidates: Vec<C>) -> Self {
        assert!(
            !candidates.is_empty(),
            "BestOf needs at least one candidate"
        );
        Self {
            name: name.into(),
            candidates,
        }
    }
}

impl<C: TestDataCodec> TestDataCodec for BestOf<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn encode_stream(&self, stream: &TritVec) -> CodecStream {
        self.candidates
            .iter()
            .map(|c| c.encode_stream(stream))
            .min_by_key(CodecStream::compressed_bits)
            .expect("BestOf is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninec_testdata::trit::Trit;

    struct Fake;
    impl TestDataCodec for Fake {
        fn name(&self) -> &str {
            "fake"
        }
        fn encode_stream(&self, stream: &TritVec) -> CodecStream {
            // Half-size dummy payload, enough to exercise the defaults.
            let mut bits = BitVec::new();
            for _ in 0..stream.len() / 2 {
                bits.push(false);
            }
            CodecStream::new(stream.len(), Payload::Fdr(bits))
        }
    }

    #[test]
    fn default_ratio() {
        let s: TritVec = "0".repeat(100).parse().unwrap();
        assert!((Fake.compression_ratio(&s) - 50.0).abs() < 1e-12);
        assert_eq!(Fake.compression_ratio(&TritVec::new()), 0.0);
    }

    #[test]
    fn default_compressed_size_measures_the_stream() {
        let s: TritVec = "0".repeat(10).parse().unwrap();
        assert_eq!(Fake.compressed_size(&s), 5);
    }

    /// Every care bit of `src` must survive the codec's roundtrip.
    fn assert_roundtrip_covers(codec: &dyn TestDataCodec, src: &TritVec) {
        let enc = codec.encode_stream(src);
        assert_eq!(enc.source_len(), src.len(), "{}", codec.name());
        let back = codec.decode_stream(&enc).unwrap();
        assert_eq!(back.len(), src.len(), "{}", codec.name());
        for i in 0..src.len() {
            if let Some(v) = src.get(i).unwrap().value() {
                assert_eq!(
                    back.get(i).and_then(Trit::value),
                    Some(v),
                    "{} care bit {i}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn every_codec_roundtrips_through_the_stream_interface() {
        let src: TritVec = "0X0X0X1XX01110000000001XXXX10X0X".parse().unwrap();
        let codecs: Vec<Box<dyn TestDataCodec>> = crate::registry::table4_registry(8).unwrap();
        assert_eq!(codecs.len(), 8);
        for codec in &codecs {
            assert_roundtrip_covers(codec.as_ref(), &src);
        }
    }

    #[test]
    fn every_codec_emits_zero_bits_on_empty_input() {
        let empty = TritVec::new();
        for codec in crate::registry::table4_registry(8).unwrap() {
            let enc = codec.encode_stream(&empty);
            assert_eq!(enc.compressed_bits(), 0, "{}", codec.name());
            assert_eq!(codec.compression_ratio(&empty), 0.0, "{}", codec.name());
            assert!(
                codec.decode_stream(&enc).unwrap().is_empty(),
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn segmented_path_is_thread_count_independent_for_every_codec() {
        let src: TritVec = "0X0X0X1XX01110000000001XXXX10X0X"
            .repeat(8)
            .parse()
            .unwrap();
        for codec in crate::registry::table4_registry(8).unwrap() {
            let serial = codec.encode_segmented(&src, 1, 64);
            assert_eq!(serial.source_len(), src.len(), "{}", codec.name());
            for threads in [2usize, 8] {
                let par = codec.encode_segmented(&src, threads, 64);
                assert_eq!(par, serial, "{} threads={threads}", codec.name());
            }
            let back = codec.decode_segmented(&serial, 4).unwrap();
            assert_eq!(back.len(), src.len(), "{}", codec.name());
            for i in 0..src.len() {
                if let Some(v) = src.get(i).unwrap().value() {
                    assert_eq!(
                        back.get(i).and_then(Trit::value),
                        Some(v),
                        "{} care bit {i}",
                        codec.name()
                    );
                }
            }
        }
    }

    #[test]
    fn segmented_empty_stream_has_no_segments() {
        let empty = TritVec::new();
        let enc = Fake.encode_segmented(&empty, 4, 64);
        assert!(enc.segments().is_empty());
        assert_eq!(enc.compressed_bits(), 0);
        assert!(Fake.decode_segmented(&enc, 4).unwrap().is_empty());
    }

    #[test]
    fn best_of_picks_the_smallest_stream() {
        use crate::golomb::Golomb;
        let sweep = BestOf::new(
            "Golomb",
            vec![Golomb::new(2).unwrap(), Golomb::new(16).unwrap()],
        );
        let sparse: TritVec = format!("{}1", "0".repeat(63)).parse().unwrap();
        let best = [2u64, 16]
            .into_iter()
            .map(|b| Golomb::new(b).unwrap().compressed_size(&sparse))
            .min()
            .unwrap();
        assert_eq!(sweep.compressed_size(&sparse), best);
        assert_roundtrip_covers(&sweep, &sparse);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn best_of_rejects_empty_sweeps() {
        let _ = BestOf::new("empty", Vec::<Fake>::new());
    }
}
