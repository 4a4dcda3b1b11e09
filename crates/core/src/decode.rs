//! The 9C software (reference) decoder.
//!
//! The on-chip decoder is modeled cycle-accurately in `ninec-decompressor`;
//! this module is the behavioural reference both are checked against.
//!
//! Where the paper's decoder (Fig. 2) walks an FSM one code bit per
//! cycle, this one reads packed trits a word at a time: a
//! [`StreamDecoder`] reads a [`TritSlice`]'s care/value planes, and every
//! frame segment is decoded from its packed 2-bit payload bytes in
//! place, through the same loop. A decode table built once per decode
//! call from any [`CodeTable`] resolves each codeword from the next value
//! bits: the first 8 in one lookup — every complete nine-codeword code,
//! the paper's included, fits in them — and a longer codeword through
//! one more. Whole halves move as word runs and word shifts. Every decode
//! path — [`DecodeSession`](crate::session::DecodeSession) and every
//! segment of every frame rung — runs this one loop.

use crate::code::{CodeTable, HalfSpec, ALL_CASES};
use crate::encode::InvalidBlockSize;
use crate::engine::frame::FrameError;
use crate::metrics::DecodeRun;
use crate::stream::{low_bits, BitSink, TritSource, WordIn, WordOut};
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
/// The root is indexed by the next `min(maxlen, 8)` value bits,
/// LSB-first (bit `j` of the index is the `j`-th bit read), where
/// `maxlen` is the longest codeword. Each entry holds what the codeword
/// that prefixes those bits promises about the two halves, and its
/// length — or [`NO_MATCH`] where no codeword does (a table with Kraft
/// sum below 1). Every complete nine-codeword code fits in 8 bits, so
/// its decode is one lookup: the paper's code needs 32 entries. A
/// longer codeword is resolved through a second level: its root entry
/// links to a subtable indexed by the next `maxlen − 8` bits. At most
/// nine codewords are long, so no table holds more than
/// `256 + 9 · 256` one-byte entries.
#[derive(Debug, Clone)]
pub(crate) struct DecodeTable {
    /// The root's entries, then each subtable's: `left << 6 | right << 4
    /// | (length − 1)`, the halves as [`ZERO`], [`ONE`] or [`MISMATCH`];
    /// or [`NO_MATCH`]; or, in the root, `LINK | s` for subtable `s`.
    entries: Box<[u8]>,
    maxlen: usize,
    /// Index bits of the root, `min(maxlen, ROOT_BITS)`.
    root_bits: usize,
}

/// Half codes of a [`DecodeTable`] entry.
const ZERO: u8 = 0;
const ONE: u8 = 1;
const MISMATCH: u8 = 2;

/// A [`DecodeTable`] entry no codeword prefixes (its half codes read 3).
const NO_MATCH: u8 = u8::MAX;

/// A root entry linking to subtable `entry & !LINK`: its left half code
/// reads 3, like [`NO_MATCH`], which no subtable index reaches.
const LINK: u8 = 0b1100_0000;

/// The most index bits the root of a [`DecodeTable`] takes.
const ROOT_BITS: usize = 8;

impl DecodeTable {
    /// Builds the lookup for `table`. Every [`CodeTable`] is prefix-free,
    /// so no two codewords claim the same entry, and no codeword of at
    /// most [`ROOT_BITS`] bits shares its root entry with a longer one.
    pub(crate) fn new(table: &CodeTable) -> Self {
        let maxlen = table.lengths().into_iter().max().unwrap_or(1) as usize;
        let root_bits = maxlen.min(ROOT_BITS);
        let sub_bits = maxlen - root_bits;
        let mut entries = vec![NO_MATCH; 1 << root_bits];
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
            // The entries this codeword prefixes: every completion of its
            // bits in the root, or in its root prefix's subtable.
            let (base, bits, pattern, fixed) = if len <= root_bits {
                (0, root_bits, lsb_first, len)
            } else {
                let prefix = lsb_first & ((1 << root_bits) - 1);
                if entries[prefix] == NO_MATCH {
                    // Subtables follow the root, `2^sub_bits` entries each.
                    let links = (entries.len() - (1 << root_bits)) >> sub_bits;
                    entries[prefix] = LINK | links as u8;
                    entries.resize(entries.len() + (1 << sub_bits), NO_MATCH);
                }
                let sub = usize::from(entries[prefix] & !LINK);
                (
                    (1 << root_bits) + (sub << sub_bits),
                    sub_bits,
                    lsb_first >> root_bits,
                    len - root_bits,
                )
            };
            for rest in 0..1usize << (bits - fixed) {
                entries[base + (pattern | rest << fixed)] = entry;
            }
        }
        Self {
            entries: entries.into_boxed_slice(),
            maxlen,
            root_bits,
        }
    }

    /// The lookup for the canonical table of a frame header's codeword
    /// `lengths`, or `None` when they break the Kraft inequality.
    pub(crate) fn for_lengths(lengths: &[u8; 9]) -> Option<Self> {
        CodeTable::from_lengths(lengths)
            .ok()
            .map(|table| Self::new(&table))
    }

    /// The mask of the root's index bits, which the decode loop hoists.
    fn root_mask(&self) -> u64 {
        low_bits(self.root_bits)
    }

    /// The entry for the codeword prefixing `bits`, the next `maxlen`
    /// value bits LSB-first (higher bits ignored). The decode loop runs
    /// the same two steps, the second only behind its error test.
    #[cfg(test)]
    fn lookup(&self, bits: u64) -> u8 {
        self.linked(self.entries[(bits & self.root_mask()) as usize], bits)
    }

    /// The entry `root`, the root entry for `bits`, stands for: the
    /// subtable entry for `bits` when `root` is a link, else `root`.
    #[cold]
    fn linked(&self, root: u8, bits: u64) -> u8 {
        if root < LINK || root == NO_MATCH {
            return root;
        }
        let sub_bits = self.maxlen - self.root_bits;
        let sub = usize::from(root & !LINK) << sub_bits;
        let index = (bits >> self.root_bits & low_bits(sub_bits)) as usize;
        self.entries[(1 << self.root_bits) + sub + index]
    }

    /// Bytes the table holds.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.entries.len()
    }
}

/// Why no codeword starts at trit `pos` of `src`, exactly as the
/// bit-serial [`CodeTable::match_at`] reads the stream: no trit left is
/// [`DecodeError::TooShort`]; otherwise the first `X` within the next
/// `min(16, left)` trits is [`DecodeError::XInCodeword`], and without one
/// the codeword is bad. Also returns how many trits that reader pulls.
#[cold]
fn codeword_error<S: TritSource>(
    src: S,
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
    let x = !src.word(pos, n).0 & low_bits(n);
    if x == 0 {
        (DecodeError::BadCodeword { offset: pos }, n)
    } else {
        let j = x.trailing_zeros() as usize;
        (DecodeError::XInCodeword { offset: pos + j }, j + 1)
    }
}

/// A streaming 9C decoder reading codewords and payload straight from
/// the packed care/value planes of a [`TritSlice`] and emitting decoded
/// symbols into any [`BitSink`]. (Its decode loop also decodes every
/// frame segment, reading the segment's packed payload bytes in place.)
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
    inner: Decoder<'a, TritSlice<'a>>,
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
        let table = Cow::Owned(DecodeTable::new(&table));
        Ok(Self {
            inner: Decoder::with_table(src, k, table, source_len)?,
        })
    }

    /// Symbols emitted so far (clipped to the promised `source_len`).
    #[must_use]
    pub fn produced(&self) -> usize {
        self.inner.produced()
    }

    /// `true` once all `source_len` symbols have been emitted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.inner.produced >= self.inner.source_len
    }

    /// Decodes the next block into `out`, returning the number of symbols
    /// emitted — `0` once the stream is complete.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn decode_block_into<O: BitSink>(&mut self, out: &mut O) -> Result<usize, DecodeError> {
        self.inner.decode_blocks(out, 1)
    }

    /// Drives the decoder to completion, emitting everything into `out`.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn run_into<O: BitSink>(mut self, out: &mut O) -> Result<(), DecodeError> {
        self.inner.decode_blocks(out, u64::MAX).map(|_| ())
    }
}

/// The one decode loop and its state, over any packed input `S`: a
/// [`StreamDecoder`]'s [`TritSlice`], or a frame segment's payload bytes
/// read in place ([`PackedTrits`](crate::engine::frame::PackedTrits)).
#[derive(Debug)]
pub(crate) struct Decoder<'a, S> {
    src: S,
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

impl<S> Decoder<'_, S> {
    /// Symbols emitted so far (clipped to the promised `source_len`).
    fn produced(&self) -> usize {
        self.produced.min(self.source_len)
    }

    /// The run so far, leaving nothing for the drop flush to publish.
    fn take_run(&mut self) -> DecodeRun {
        let run = DecodeRun {
            blocks: self.blocks,
            bits_in: self.pos as u64,
            symbols_out: self.produced() as u64,
        };
        self.blocks = 0;
        run
    }
}

impl<'a, S: TritSource> Decoder<'a, S> {
    /// A decoder for a stream of `source_len` symbols encoded at block
    /// size `k`, over a decode table the caller may build once and share
    /// between decoders.
    pub(crate) fn with_table(
        src: S,
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

    /// Drives the decoder to completion like
    /// [`StreamDecoder::run_into`], but hands the run's tally back
    /// instead of publishing it when dropped, also when the decode fails
    /// part-way: how a segment job returns its telemetry with its
    /// output.
    pub(crate) fn run_tallied<O: BitSink>(
        mut self,
        out: &mut O,
    ) -> (Result<(), DecodeError>, DecodeRun) {
        let result = self.decode_blocks(out, u64::MAX).map(|_| ());
        (result, self.take_run())
    }

    /// Decodes up to `limit` blocks into `out` and returns the symbols
    /// emitted; the output is flushed to `out` before an `Ok` return.
    /// Kept out of line, so each input and sink gets the loop as one
    /// function of its own rather than inlined into its caller.
    #[inline(never)]
    fn decode_blocks<O: BitSink>(&mut self, out: &mut O, limit: u64) -> Result<usize, DecodeError> {
        let table: &DecodeTable = &self.table;
        let (half, source_len) = (self.half, self.source_len);
        let mut input = WordIn::new(self.src, self.pos);
        let mut produced = self.produced;
        let first = produced.min(source_len);
        let mut acc = WordOut::default();
        let mut blocks = 0u64;
        let half_ones = low_bits(half.min(64));
        let root_mask = table.root_mask();
        let failed = loop {
            if produced >= source_len || blocks == limit {
                break None;
            }
            // One lookup names the codeword; one mask proves it X-free.
            // A long codeword's second lookup waits behind the same test.
            input.want(table.maxlen);
            let mut entry = table.entries[(input.value & root_mask) as usize];
            let mut len = usize::from(entry & 15) + 1;
            if entry >= LINK || len > input.len || input.care & low_bits(len) != low_bits(len) {
                entry = table.linked(entry, input.value);
                len = usize::from(entry & 15) + 1;
                if entry == NO_MATCH
                    || len > input.len
                    || input.care & low_bits(len) != low_bits(len)
                {
                    let (e, pulled) = codeword_error(input.src, input.pos, produced, source_len);
                    input.pos += pulled;
                    break Some(e);
                }
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

impl<S> Drop for Decoder<'_, S> {
    /// Flushes the run's tally into the global [`ninec_obs`] registry
    /// (`ninec.decode.runs` / `.blocks` / `.bits_in` / `.symbols_out`) —
    /// one batched flush per decoder lifetime, skipped for decoders that
    /// never emitted a block and while runtime telemetry is off.
    fn drop(&mut self) {
        if self.blocks > 0 {
            let run = self.take_run();
            crate::metrics::publish_decode(run.blocks, run.bits_in, run.symbols_out);
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

    /// Every lookup is what the bit-serial matcher reads from the same
    /// bits: the software image of the Fig. 2 FSM, for the paper's code
    /// and for other length multisets, a 16-bit codeword included, and
    /// codes of 9 to 15 bits whose several 8-bit prefixes each link to a
    /// subtable narrower than the root.
    #[test]
    fn decode_table_is_the_bit_serial_matcher() {
        use crate::code::PAPER_LENGTHS;
        for lengths in [
            PAPER_LENGTHS,
            [4, 2, 5, 5, 5, 5, 5, 5, 1],
            [2, 2, 3, 4, 5, 6, 7, 8, 9],
            [1, 2, 3, 4, 5, 6, 7, 8, 16],
            [16; 9],
            [9, 9, 9, 9, 9, 9, 9, 9, 16],
            [9; 9],
            [10; 9],
            [12; 9],
            [9, 9, 9, 9, 9, 9, 9, 9, 15],
        ] {
            let table = CodeTable::from_lengths(&lengths).unwrap();
            let lut = DecodeTable::new(&table);
            let code = |half| match half {
                HalfSpec::Zero => ZERO,
                HalfSpec::One => ONE,
                HalfSpec::Mismatch => MISMATCH,
            };
            for index in 0..1u64 << lut.maxlen {
                let entry = lut.lookup(index);
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

    /// The paper's code is one lookup in 32 entries, the deepest complete
    /// code fits one level of 256, and a 16-bit codeword adds one
    /// 256-entry subtable per 8-bit prefix instead of a 65,536-entry
    /// table. With at most one subtable per codeword, no Kraft-valid
    /// header builds more than `256 + 9 · 256` bytes, within 4 KiB.
    #[test]
    fn decode_tables_stay_small() {
        use crate::code::PAPER_LENGTHS;
        for (lengths, bytes) in [
            (PAPER_LENGTHS, 32),
            ([4, 2, 5, 5, 5, 5, 5, 5, 1], 32),
            ([2, 2, 3, 4, 5, 6, 7, 8, 9], 256 + 2),
            ([1, 2, 3, 4, 5, 6, 7, 8, 16], 256 + 256),
            ([16; 9], 256 + 256),
            ([1, 2, 3, 4, 5, 6, 7, 8, 8], 256),
            ([9, 9, 9, 9, 9, 9, 9, 9, 16], 256 + 5 * 256),
            ([9; 9], 256 + 5 * 2),
            ([10; 9], 256 + 3 * 4),
            ([12; 9], 256 + 16),
            ([9, 9, 9, 9, 9, 9, 9, 9, 15], 256 + 5 * 128),
        ] {
            let table = CodeTable::from_lengths(&lengths).unwrap();
            assert_eq!(DecodeTable::new(&table).bytes(), bytes, "{lengths:?}");
        }
    }

    /// Encoding and a session decode over tables other than the paper's
    /// keep every care bit of a stream that uses all nine cases: a
    /// permuted paper code, and codes whose longest codeword has 9 to 15
    /// bits, which resolve it through subtables of fewer than 256
    /// entries, one per 8-bit prefix.
    #[test]
    fn custom_table_roundtrip() {
        use crate::code::PAPER_LENGTHS;
        let blocks = [
            "00000000", "11111111", "0000XX11", "1111000X", "000001X0", "11110X10", "01X00000",
            "1X011111", "01X01X01",
        ];
        let mut s = blocks.concat();
        for (i, block) in blocks.iter().enumerate().rev() {
            s.push_str(block);
            s.push_str(blocks[(i * 4) % 9]);
        }
        let src: TritVec = s.parse().unwrap();
        let mut swapped = PAPER_LENGTHS;
        swapped.swap(0, 8);
        for lengths in [
            swapped,
            [9; 9],
            [10; 9],
            [12; 9],
            [9, 9, 9, 9, 9, 9, 9, 9, 15],
        ] {
            let table = CodeTable::from_lengths(&lengths).unwrap();
            let enc = Encoder::with_table(8, table).unwrap().encode_stream(&src);
            let dec = sdecode(&enc).unwrap();
            assert_eq!(dec.len(), src.len(), "{lengths:?}");
            for i in 0..src.len() {
                let t = src.get(i).unwrap();
                if t.is_care() {
                    assert_eq!(Some(t), dec.get(i), "{lengths:?}, trit {i}");
                }
            }
        }
    }
}
