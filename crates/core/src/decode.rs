//! The 9C software (reference) decoder.
//!
//! The on-chip decoder is modeled cycle-accurately in `ninec-decompressor`;
//! this module is the behavioural reference both are checked against.

use crate::code::{CodeTable, HalfSpec};
use crate::encode::InvalidBlockSize;
use crate::engine::frame::FrameError;
use crate::stream::{BitSink, BitSource};
use ninec_testdata::trit::Trit;
use std::fmt;

/// Error returned when a compressed stream cannot be decoded.
///
/// Every malformed input — including an invalid block size, which older
/// releases rejected with an `assert!` — is reported as a typed variant:
/// library callers never abort.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// No codeword matches at the given bit offset (truncated or corrupt
    /// stream).
    BadCodeword {
        /// Bit offset where matching failed.
        offset: usize,
    },
    /// A don't-care appeared inside a codeword (codewords must be fully
    /// specified).
    XInCodeword {
        /// Bit offset of the offending symbol.
        offset: usize,
    },
    /// The stream ended in the middle of a verbatim payload.
    TruncatedPayload {
        /// Bit offset where the payload started.
        offset: usize,
    },
    /// Decoding produced fewer symbols than `source_len` requires.
    TooShort {
        /// Symbols produced.
        produced: usize,
        /// Symbols required.
        required: usize,
    },
    /// The requested block size is not even and at least 4. (Replaces the
    /// pre-session `assert!` in `decode_stream`.)
    InvalidBlockSize {
        /// The rejected block size.
        k: usize,
    },
    /// A framed (`9CSF`) byte stream ended before the promised structure
    /// was complete.
    TruncatedStream {
        /// Byte offset at which more data was required.
        offset: usize,
    },
    /// A framed (`9CSF`) byte stream is structurally invalid (bad magic,
    /// bad CRC, unsupported version, bad table, malformed segment).
    Frame(FrameError),
    /// A [`DecodeSession`](crate::session::DecodeSession) was asked to
    /// decode without a required parameter.
    MissingParameter {
        /// Which builder parameter was missing (`"k"` / `"source_len"`).
        what: &'static str,
    },
    /// A frame's header-claimed sizes exceed the configured
    /// [`DecodeLimits`](crate::engine::DecodeLimits) — rejected *before*
    /// any allocation (decompression-bomb guard).
    LimitExceeded {
        /// Which limit was hit.
        what: &'static str,
        /// The size the frame claimed.
        requested: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The pool worker decoding one segment panicked; the panic was
    /// caught at the task boundary and every other segment completed.
    /// (In salvage mode this becomes a damage-map entry instead.)
    WorkerPanicked {
        /// Zero-based index of the segment whose worker panicked.
        segment: usize,
    },
    /// The caller's [`CancelToken`](crate::CancelToken) was cancelled
    /// before the decode finished; remaining segment jobs were abandoned
    /// between segments. (In salvage mode this becomes a damage-map
    /// entry instead.)
    Cancelled,
    /// The caller's [`CancelToken`](crate::CancelToken) deadline passed
    /// before the decode finished; remaining segment jobs were abandoned
    /// between segments. (In salvage mode this becomes a damage-map
    /// entry instead.)
    DeadlineExceeded,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadCodeword { offset } => {
                write!(f, "no codeword matches at bit offset {offset}")
            }
            DecodeError::XInCodeword { offset } => {
                write!(f, "don't-care inside a codeword at bit offset {offset}")
            }
            DecodeError::TruncatedPayload { offset } => {
                write!(
                    f,
                    "stream ends inside the payload starting at bit offset {offset}"
                )
            }
            DecodeError::TooShort { produced, required } => {
                write!(f, "decoded {produced} symbols but {required} were required")
            }
            DecodeError::InvalidBlockSize { k } => {
                write!(f, "block size must be even and at least 4, got {k}")
            }
            DecodeError::TruncatedStream { offset } => {
                write!(f, "framed stream truncated at byte offset {offset}")
            }
            DecodeError::Frame(e) => write!(f, "invalid segment frame: {e}"),
            DecodeError::MissingParameter { what } => {
                write!(f, "decode session is missing the `{what}` parameter")
            }
            DecodeError::LimitExceeded {
                what,
                requested,
                limit,
            } => {
                write!(
                    f,
                    "decode limit exceeded: {what} {requested} > limit {limit}"
                )
            }
            DecodeError::WorkerPanicked { segment } => {
                write!(f, "decode worker panicked on segment {segment}")
            }
            DecodeError::Cancelled => write!(f, "decode cancelled by caller"),
            DecodeError::DeadlineExceeded => write!(f, "decode deadline exceeded"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InvalidBlockSize> for DecodeError {
    fn from(e: InvalidBlockSize) -> Self {
        DecodeError::InvalidBlockSize { k: e.k }
    }
}

/// A streaming 9C decoder pulling codewords and payload from a
/// [`BitSource`] and emitting decoded symbols into any [`BitSink`], one
/// block per step — memory stays `O(K)` regardless of stream length.
///
/// Produces exactly `source_len` symbols in total: pad symbols the encoder
/// appended to fill its final block are consumed from the source but never
/// emitted.
///
/// # Examples
///
/// ```
/// use ninec::code::CodeTable;
/// use ninec::decode::StreamDecoder;
/// use ninec_testdata::trit::TritVec;
///
/// // C1 ("0") then C5 ("11100") with payload "01X0", at K = 8.
/// let te: TritVec = "01110001X0".parse()?;
/// let mut dec = StreamDecoder::new(te.as_slice().iter(), 8, CodeTable::paper(), 16)?;
/// let mut out = TritVec::new();
/// while dec.decode_block_into(&mut out)? > 0 {}
/// assert_eq!(out.to_string(), "0000000000000 1X0".replace(' ', ""));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StreamDecoder<S: BitSource> {
    source: S,
    table: CodeTable,
    half: usize,
    source_len: usize,
    /// Symbols produced so far *before clipping to `source_len`* (the
    /// final block may overshoot by the encoder's pad).
    produced: usize,
    /// Bit offset consumed from the source, for error reporting.
    pos: usize,
    /// Blocks decoded so far — local tally, flushed once to the
    /// `ninec.decode.*` counters when the decoder is dropped.
    blocks: u64,
}

impl<S: BitSource> StreamDecoder<S> {
    /// Creates a decoder for a stream of `source_len` symbols encoded at
    /// block size `k` with `table`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBlockSize`] unless `k` is even and at least 4.
    pub fn new(
        source: S,
        k: usize,
        table: CodeTable,
        source_len: usize,
    ) -> Result<Self, InvalidBlockSize> {
        if k < 4 || !k.is_multiple_of(2) {
            return Err(InvalidBlockSize { k });
        }
        Ok(Self {
            source,
            table,
            half: k / 2,
            source_len,
            produced: 0,
            pos: 0,
            blocks: 0,
        })
    }

    /// Symbols emitted so far (clipped to the promised `source_len`).
    #[must_use]
    pub fn produced(&self) -> usize {
        self.produced.min(self.source_len)
    }

    /// `true` once all `source_len` symbols have been emitted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.produced >= self.source_len
    }

    /// Decodes the next block into `out`, returning the number of symbols
    /// emitted — `0` once the stream is complete. Uniform halves are
    /// emitted as word-level runs via [`BitSink::push_run`].
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn decode_block_into<O: BitSink>(&mut self, out: &mut O) -> Result<usize, DecodeError> {
        if self.produced >= self.source_len {
            return Ok(0);
        }
        // Match the next codeword; X inside a codeword is a corruption.
        let mut saw_x_at = None;
        let mut pulled = 0usize;
        let pos0 = self.pos;
        let matched = self.table.match_at(|i| match self.source.next_trit() {
            Some(Trit::Zero) => {
                pulled += 1;
                Some(false)
            }
            Some(Trit::One) => {
                pulled += 1;
                Some(true)
            }
            Some(Trit::X) => {
                pulled += 1;
                if saw_x_at.is_none() {
                    saw_x_at = Some(pos0 + i);
                }
                None
            }
            None => None,
        });
        self.pos += pulled;
        let (case, _used) = match matched {
            Some(hit) => hit,
            None => {
                return Err(match saw_x_at {
                    Some(offset) => DecodeError::XInCodeword { offset },
                    None if pulled == 0 => DecodeError::TooShort {
                        produced: self.produced,
                        required: self.source_len,
                    },
                    None => DecodeError::BadCodeword { offset: pos0 },
                })
            }
        };
        let half = self.half;
        let mut emitted = 0usize;
        let (ls, rs) = case.halves();
        for spec in [ls, rs] {
            // Clip emission to the promised source length; pad symbols are
            // consumed but dropped.
            let take = half.min(self.source_len.saturating_sub(self.produced));
            match spec {
                HalfSpec::Zero => out.push_run(Trit::Zero, take),
                HalfSpec::One => out.push_run(Trit::One, take),
                HalfSpec::Mismatch => {
                    let payload_at = self.pos;
                    for i in 0..half {
                        let t = self
                            .source
                            .next_trit()
                            .ok_or(DecodeError::TruncatedPayload { offset: payload_at })?;
                        self.pos += 1;
                        if i < take {
                            out.push_trit(t);
                        }
                    }
                }
            }
            self.produced += half;
            emitted += take;
        }
        self.blocks += 1;
        Ok(emitted)
    }

    /// Drives the decoder to completion, emitting everything into `out`.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn run_into<O: BitSink>(mut self, out: &mut O) -> Result<(), DecodeError> {
        while self.decode_block_into(out)? > 0 {}
        Ok(())
    }
}

impl<S: BitSource> Drop for StreamDecoder<S> {
    /// Flushes the run's tally into the global [`ninec_obs`] registry
    /// (`ninec.decode.runs` / `.blocks` / `.bits_in` / `.symbols_out`) —
    /// one batched flush per decoder lifetime, skipped for decoders that
    /// never emitted a block and while runtime telemetry is off.
    fn drop(&mut self) {
        if self.blocks > 0 {
            crate::metrics::publish_decode(self.blocks, self.pos as u64, self.produced() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{Encoded, Encoder};
    use crate::session::DecodeSession;
    use ninec_testdata::fill::FillStrategy;
    use ninec_testdata::trit::TritVec;

    /// Session-based decode of an [`Encoded`] (the canonical entry point).
    fn sdecode(enc: &Encoded) -> Result<TritVec, DecodeError> {
        DecodeSession::new().decode(enc)
    }

    /// Session-based decode of a raw trit stream with the paper table.
    fn sdecode_trits(te: &TritVec, k: usize, source_len: usize) -> Result<TritVec, DecodeError> {
        DecodeSession::new()
            .k(k)
            .source_len(source_len)
            .decode_trits(te)
    }

    fn roundtrip(k: usize, s: &str) {
        let src: TritVec = s.parse().unwrap();
        let enc = Encoder::new(k).unwrap().encode_stream(&src);
        let dec = sdecode(&enc).unwrap();
        assert_eq!(dec.len(), src.len());
        // Every care bit of the source is preserved; every X is either
        // preserved or bound to a constant by a uniform case.
        for i in 0..src.len() {
            let s = src.get(i).unwrap();
            let d = dec.get(i).unwrap();
            if s.is_care() {
                assert_eq!(s, d, "care bit {i} changed in {s:?}");
            }
        }
    }

    #[test]
    fn roundtrips() {
        roundtrip(8, "0X0X01X001X0101X111111110000X111");
        roundtrip(4, "01X010XX11");
        roundtrip(16, &"X0".repeat(40));
        roundtrip(8, "0000000001"); // needs padding
    }

    #[test]
    fn decode_regenerates_uniform_runs() {
        let src: TritVec = "0X0XX11X".parse().unwrap();
        let enc = Encoder::new(8).unwrap().encode_stream(&src);
        let dec = sdecode(&enc).unwrap();
        assert_eq!(dec.to_string(), "00001111");
    }

    #[test]
    fn payload_x_survives_decode() {
        let src: TritVec = "000001X0".parse().unwrap();
        let enc = Encoder::new(8).unwrap().encode_stream(&src);
        let dec = sdecode(&enc).unwrap();
        assert_eq!(dec.to_string(), "000001X0");
    }

    #[test]
    fn decode_bits_matches_filled_decode() {
        let src: TritVec = "0X0X01X001X0101X".parse().unwrap();
        let enc = Encoder::new(8).unwrap().encode_stream(&src);
        let ate_bits = enc.to_bitvec(FillStrategy::Random { seed: 5 });
        let dec = DecodeSession::new()
            .k(8)
            .table(enc.table().clone())
            .source_len(enc.source_len())
            .decode_bits(&ate_bits)
            .unwrap();
        // The fully specified decode must cover the cube source.
        let dec_trits = TritVec::from(&dec);
        assert!(dec_trits.covers(&sdecode(&enc).unwrap()) || dec_trits.compatible_with(&src));
        for i in 0..src.len() {
            let s = src.get(i).unwrap();
            if s.is_care() {
                assert_eq!(Some(s), dec_trits.get(i));
            }
        }
    }

    #[test]
    fn bad_codeword_reported() {
        // "11" alone is not a valid codeword prefix completion.
        let te: TritVec = "11".parse().unwrap();
        let err = sdecode_trits(&te, 8, 8).unwrap_err();
        assert!(matches!(err, DecodeError::BadCodeword { offset: 0 }));
    }

    #[test]
    fn x_in_codeword_reported() {
        let te: TritVec = "X".parse().unwrap();
        let err = sdecode_trits(&te, 8, 8).unwrap_err();
        assert!(matches!(err, DecodeError::XInCodeword { offset: 0 }));
    }

    #[test]
    fn truncated_payload_reported() {
        // C9 ("1100") promises 8 payload bits but only 3 follow.
        let te: TritVec = "1100010".parse().unwrap();
        let err = sdecode_trits(&te, 8, 8).unwrap_err();
        assert!(matches!(err, DecodeError::TruncatedPayload { offset: 4 }));
    }

    #[test]
    fn too_short_reported() {
        // One C1 block yields 8 symbols; 16 were promised.
        let te: TritVec = "0".parse().unwrap();
        let err = sdecode_trits(&te, 8, 16).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::TooShort {
                produced: 8,
                required: 16
            }
        ));
    }

    #[test]
    fn invalid_block_size_is_an_error_not_a_panic() {
        // Replaces the pre-session `assert!`: library callers never abort.
        let te: TritVec = "0".parse().unwrap();
        for k in [0usize, 2, 7] {
            let err = sdecode_trits(&te, k, 8).unwrap_err();
            assert_eq!(err, DecodeError::InvalidBlockSize { k });
        }
    }

    #[test]
    fn stream_decoder_drains_block_by_block() {
        let src: TritVec = "0X0X01X001X0101X111111110000X11101".parse().unwrap();
        let enc = Encoder::new(8).unwrap().encode_stream(&src);
        let expect = sdecode(&enc).unwrap();
        let mut dec = StreamDecoder::new(
            enc.stream().as_slice().iter(),
            enc.k(),
            enc.table().clone(),
            enc.source_len(),
        )
        .unwrap();
        // Drain after every block: peak buffering is one block.
        let mut got = TritVec::new();
        let mut buf = TritVec::new();
        loop {
            let n = dec.decode_block_into(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert!(buf.len() <= 8, "drained buffer exceeded one block");
            got.extend_from_tritvec(&buf);
            buf.truncate(0);
        }
        assert!(dec.is_done());
        assert_eq!(dec.produced(), src.len());
        assert_eq!(got, expect);
    }

    #[test]
    fn stream_decoder_run_into_matches_one_shot() {
        let src: TritVec = "01X0101XXXXXXXXX0000000011".parse().unwrap();
        let enc = Encoder::new(8).unwrap().encode_stream(&src);
        let mut out = TritVec::new();
        StreamDecoder::new(
            enc.stream().as_slice().iter(),
            enc.k(),
            enc.table().clone(),
            enc.source_len(),
        )
        .unwrap()
        .run_into(&mut out)
        .unwrap();
        assert_eq!(out, sdecode(&enc).unwrap());
    }

    #[test]
    fn stream_decoder_rejects_bad_block_size() {
        let v = TritVec::new();
        assert!(StreamDecoder::new(v.as_slice().iter(), 7, CodeTable::paper(), 0).is_err());
        assert!(StreamDecoder::new(v.as_slice().iter(), 2, CodeTable::paper(), 0).is_err());
    }

    #[test]
    fn custom_table_roundtrip() {
        use crate::code::PAPER_LENGTHS;
        let mut lengths = PAPER_LENGTHS;
        lengths.swap(0, 8);
        let table = CodeTable::from_lengths(&lengths).unwrap();
        let src: TritVec = "01X010XX11000111".parse().unwrap();
        let enc = Encoder::with_table(8, table.clone())
            .unwrap()
            .encode_stream(&src);
        let dec = sdecode(&enc).unwrap();
        for i in 0..src.len() {
            let s = src.get(i).unwrap();
            if s.is_care() {
                assert_eq!(Some(s), dec.get(i));
            }
        }
    }
}
