//! The 9C software (reference) decoder.
//!
//! The on-chip decoder is modeled cycle-accurately in `ninec-decompressor`;
//! this module is the behavioural reference both are checked against.
//!
//! Where the paper's decoder (Fig. 2) walks an FSM one code bit per
//! cycle, this one reads the packed care/value planes directly: a
//! decode table built once per decode call from any [`CodeTable`]
//! resolves each codeword from the next (at most 16) value bits in one
//! lookup, and whole halves move as word runs and word shifts. Every
//! decode path — [`DecodeSession`](crate::session::DecodeSession) and
//! every segment of every frame rung — runs the one [`StreamDecoder`].

use crate::code::{CodeTable, HalfSpec, ALL_CASES};
use crate::encode::InvalidBlockSize;
use crate::engine::frame::FrameError;
use crate::stream::{low_bits, BitSink, WordIn, WordOut};
use ninec_testdata::slice::TritSlice;
use std::borrow::Cow;
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

/// The decode side of a [`CodeTable`]: which codeword the next stream
/// bits start with, found in one lookup — the software image of the
/// paper's Fig. 2 decoder FSM.
///
/// The table is indexed by the next `maxlen` value bits, LSB-first (bit
/// `j` of the index is the `j`-th bit read), where `maxlen` is the
/// longest codeword. Each entry holds what the codeword that prefixes
/// those bits promises about the two halves, and its length — or
/// [`NO_MATCH`] where no codeword does (a table with Kraft sum below 1).
/// The paper's code needs 32 entries; a 16-bit codeword needs 65,536.
#[derive(Debug, Clone)]
pub(crate) struct DecodeTable {
    /// `left << 6 | right << 4 | (length − 1)` per index, the halves as
    /// [`ZERO`], [`ONE`] or [`MISMATCH`]; or [`NO_MATCH`].
    entries: Box<[u8]>,
    maxlen: usize,
}

/// Half codes of a [`DecodeTable`] entry.
const ZERO: u8 = 0;
const ONE: u8 = 1;
const MISMATCH: u8 = 2;

/// A [`DecodeTable`] entry no codeword prefixes (its half codes read 3).
const NO_MATCH: u8 = u8::MAX;

impl DecodeTable {
    /// Builds the lookup for `table`. Every [`CodeTable`] is prefix-free,
    /// so no two codewords claim the same entry.
    pub(crate) fn new(table: &CodeTable) -> Self {
        let maxlen = table.lengths().into_iter().max().unwrap_or(1) as usize;
        let mut entries = vec![NO_MATCH; 1 << maxlen].into_boxed_slice();
        for case in ALL_CASES {
            let word = table.codeword(case);
            let len = word.len();
            let lsb_first = word
                .iter_bits()
                .enumerate()
                .fold(0usize, |acc, (j, bit)| acc | usize::from(bit) << j);
            let code = |half| match half {
                HalfSpec::Zero => ZERO,
                HalfSpec::One => ONE,
                HalfSpec::Mismatch => MISMATCH,
            };
            let (left, right) = case.halves();
            let entry = code(left) << 6 | code(right) << 4 | (len - 1) as u8;
            for rest in 0..1usize << (maxlen - len) {
                entries[lsb_first | rest << len] = entry;
            }
        }
        Self { entries, maxlen }
    }

    /// The lookup for the canonical table of a frame header's codeword
    /// `lengths`, or `None` when they break the Kraft inequality.
    pub(crate) fn for_lengths(lengths: &[u8; 9]) -> Option<Self> {
        CodeTable::from_lengths(lengths)
            .ok()
            .map(|table| Self::new(&table))
    }
}

/// Why no codeword starts at trit `pos` of `src`, exactly as the
/// bit-serial [`CodeTable::match_at`] reads the stream: no trit left is
/// [`DecodeError::TooShort`]; otherwise the first `X` within the next
/// `min(16, left)` trits is [`DecodeError::XInCodeword`], and without one
/// the codeword is bad. Also returns how many trits that reader pulls.
#[cold]
fn codeword_error(
    src: TritSlice<'_>,
    pos: usize,
    produced: usize,
    source_len: usize,
) -> (DecodeError, usize) {
    let left = src.len() - pos;
    if left == 0 {
        let required = source_len;
        return (DecodeError::TooShort { produced, required }, 0);
    }
    let n = left.min(16);
    let x = !src.care_word(pos, n) & low_bits(n);
    if x == 0 {
        (DecodeError::BadCodeword { offset: pos }, n)
    } else {
        let j = x.trailing_zeros() as usize;
        (DecodeError::XInCodeword { offset: pos + j }, j + 1)
    }
}

/// A streaming 9C decoder reading codewords and payload straight from
/// the packed care/value planes of a [`TritSlice`] and emitting decoded
/// symbols into any [`BitSink`].
///
/// Each block costs one table lookup on the next (at most 16) value
/// bits and one mask over the care bits of the codeword; uniform halves
/// are emitted as word runs and mismatch halves copied as word shifts,
/// and the output reaches the sink a word at a time. Memory stays `O(1)`
/// beyond the decode table, whatever the stream length.
///
/// Produces exactly `source_len` symbols in total: pad symbols the encoder
/// appended to fill its final block are consumed from the source but never
/// emitted. What a sink holds after an `Err` is unspecified.
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
/// let mut dec = StreamDecoder::new(te.as_slice(), 8, CodeTable::paper(), 16)?;
/// let mut out = TritVec::new();
/// while dec.decode_block_into(&mut out)? > 0 {}
/// assert_eq!(out.to_string(), "0000000000000 1X0".replace(' ', ""));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StreamDecoder<'a> {
    src: TritSlice<'a>,
    table: Cow<'a, DecodeTable>,
    half: usize,
    source_len: usize,
    /// Symbols produced so far *before clipping to `source_len`* (the
    /// final block may overshoot by the encoder's pad).
    produced: usize,
    /// Trits consumed from `src`, for error reporting.
    pos: usize,
    /// Blocks decoded so far — local tally, flushed once to the
    /// `ninec.decode.*` counters when the decoder is dropped.
    blocks: u64,
}

impl<'a> StreamDecoder<'a> {
    /// Creates a decoder for a stream of `source_len` symbols encoded at
    /// block size `k` with `table`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBlockSize`] unless `k` is even and at least 4.
    pub fn new(
        src: TritSlice<'a>,
        k: usize,
        table: CodeTable,
        source_len: usize,
    ) -> Result<Self, InvalidBlockSize> {
        Self::with_table(src, k, Cow::Owned(DecodeTable::new(&table)), source_len)
    }

    /// [`new`](Self::new) over a decode table the caller built once and
    /// shares between decoders.
    pub(crate) fn with_table(
        src: TritSlice<'a>,
        k: usize,
        table: Cow<'a, DecodeTable>,
        source_len: usize,
    ) -> Result<Self, InvalidBlockSize> {
        if k < 4 || !k.is_multiple_of(2) {
            return Err(InvalidBlockSize { k });
        }
        Ok(Self {
            src,
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
    /// emitted — `0` once the stream is complete.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn decode_block_into<O: BitSink>(&mut self, out: &mut O) -> Result<usize, DecodeError> {
        self.decode_blocks(out, 1)
    }

    /// Drives the decoder to completion, emitting everything into `out`.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn run_into<O: BitSink>(mut self, out: &mut O) -> Result<(), DecodeError> {
        self.decode_blocks(out, u64::MAX).map(|_| ())
    }

    /// Decodes up to `limit` blocks into `out` and returns the symbols
    /// emitted; the output is flushed to `out` before an `Ok` return.
    fn decode_blocks<O: BitSink>(&mut self, out: &mut O, limit: u64) -> Result<usize, DecodeError> {
        let table: &DecodeTable = &self.table;
        let (half, source_len) = (self.half, self.source_len);
        let mut input = WordIn::new(self.src, self.pos);
        let mut produced = self.produced;
        let first = produced.min(source_len);
        let mut acc = WordOut::default();
        let mut blocks = 0u64;
        let index_mask = low_bits(table.maxlen);
        let half_ones = low_bits(half.min(64));
        let failed = loop {
            if produced >= source_len || blocks == limit {
                break None;
            }
            // One lookup names the codeword; one mask proves it X-free.
            input.want(table.maxlen);
            let entry = table.entries[(input.value & index_mask) as usize];
            let len = usize::from(entry & 15) + 1;
            if entry == NO_MATCH || len > input.len || input.care & low_bits(len) != low_bits(len) {
                let (e, pulled) = codeword_error(input.src, input.pos, produced, source_len);
                input.pos += pulled;
                break Some(e);
            }
            input.consume(len);
            let (left, right) = (entry >> 6, entry >> 4 & 3);
            if left | right <= ONE && 2 * half <= 64 && produced + 2 * half <= source_len {
                // A whole uniform block is one word of output.
                let value = half_ones & 0u64.wrapping_sub(left.into())
                    | half_ones << half & 0u64.wrapping_sub(right.into());
                acc.push(out, low_bits(2 * half), value, 2 * half);
                produced += 2 * half;
                blocks += 1;
                continue;
            }
            let mut truncated = None;
            for spec in [left, right] {
                // Clip emission to the promised source length; pad symbols
                // are consumed but dropped.
                let take = half.min(source_len.saturating_sub(produced));
                if spec != MISMATCH {
                    acc.run(out, spec == ONE, take);
                } else if input.left() < half {
                    truncated = Some(DecodeError::TruncatedPayload { offset: input.pos });
                    break;
                } else {
                    // A word of payload per step; clipped pad trits are read
                    // but not emitted.
                    let (mut rest, mut keep) = (half, take);
                    while rest > 0 {
                        let n = rest.min(64);
                        input.want(n);
                        let emit = low_bits(keep.min(n));
                        acc.push(out, input.care & emit, input.value & emit, keep.min(n));
                        input.consume(n);
                        (rest, keep) = (rest - n, keep.saturating_sub(n));
                    }
                }
                produced += half;
            }
            if let Some(e) = truncated {
                // The bit-serial reader pulls what is left of the stream.
                input.pos = input.src.len();
                break Some(e);
            }
            blocks += 1;
        };
        self.pos = input.pos;
        self.produced = produced;
        self.blocks += blocks;
        match failed {
            Some(e) => Err(e),
            None => {
                acc.flush(out);
                Ok(produced.min(source_len) - first)
            }
        }
    }
}

impl Drop for StreamDecoder<'_> {
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
            enc.stream().as_slice(),
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
            enc.stream().as_slice(),
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
        assert!(StreamDecoder::new(v.as_slice(), 7, CodeTable::paper(), 0).is_err());
        assert!(StreamDecoder::new(v.as_slice(), 2, CodeTable::paper(), 0).is_err());
    }

    /// Every entry of the lookup is what the bit-serial matcher reads
    /// from the same bits: the software image of the Fig. 2 FSM, for the
    /// paper's code (32 entries) and for other length multisets.
    #[test]
    fn decode_table_is_the_bit_serial_matcher_in_one_lookup() {
        use crate::code::PAPER_LENGTHS;
        assert_eq!(DecodeTable::new(&CodeTable::paper()).entries.len(), 32);
        for lengths in [
            PAPER_LENGTHS,
            [4, 2, 5, 5, 5, 5, 5, 5, 1],
            [2, 2, 3, 4, 5, 6, 7, 8, 9],
            [1, 2, 3, 4, 5, 6, 7, 8, 16],
        ] {
            let table = CodeTable::from_lengths(&lengths).unwrap();
            let lut = DecodeTable::new(&table);
            assert_eq!(lut.entries.len(), 1 << lut.maxlen);
            let code = |half| match half {
                HalfSpec::Zero => ZERO,
                HalfSpec::One => ONE,
                HalfSpec::Mismatch => MISMATCH,
            };
            for (index, &entry) in lut.entries.iter().enumerate() {
                let bits = |i: usize| (i < lut.maxlen).then_some(index >> i & 1 == 1);
                let want = table.match_at(bits).map(|(case, len)| {
                    let (left, right) = case.halves();
                    (code(left), code(right), len)
                });
                let got = (entry != NO_MATCH).then_some((
                    entry >> 6,
                    entry >> 4 & 3,
                    usize::from(entry & 15) + 1,
                ));
                assert_eq!(got, want, "lengths {lengths:?}, index {index:#b}");
            }
        }
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
