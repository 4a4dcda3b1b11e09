//! The 9C encoder.
//!
//! The paper's encoder (Table I) names each block's case from two facts
//! about each `K/2` half: does it hold a care 1, and does it hold a care
//! 0. Here those facts are two masks on the packed care/value planes,
//! and the case comes from one lookup in a 16-entry table built once per
//! [`Encoder`] from its [`CodeTable`], `K` and [`CaseSelect`]. For
//! `K ≤ 64` blocks are read from a 64-trit input window, and a window
//! that holds only `X` gives up all its blocks in one step; the output
//! reaches the sink through a 64-trit accumulator. The window and the
//! accumulator are the ones the decoder uses ([`crate::stream`]). Every
//! encode — [`Encoder::encode_stream`], the [`Engine`](crate::Engine)'s
//! segments and frames, and the service's compress requests — runs
//! through the one [`StreamEncoder`].

use crate::block::HalfClass;
use crate::code::{Case, CodeTable, HalfSpec, ALL_CASES};
use crate::stream::{low_bits, BitSink, WordIn, WordOut};
use ninec_testdata::cube::TestSet;
use ninec_testdata::slice::TritSlice;
use ninec_testdata::trit::{Trit, TritVec};
use std::fmt;

/// Case-selection policy among (near-)equal-cost alternatives.
///
/// A block with flexible halves (e.g. all-`X`) satisfies several cases at
/// different costs. [`CaseSelect::MinSize`] is the paper's policy: always
/// take the cheapest case. [`CaseSelect::PowerAware`] exploits the same
/// flexibility for scan power: among cases within `max_extra_bits` of the
/// cheapest, pick the one whose bound values introduce the fewest
/// transitions at the block-boundary and half-boundary seams — trading a
/// sliver of CR for quieter scan-in (the paper's §IV remark, made
/// concrete).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaseSelect {
    /// The paper's greedy: cheapest case, ties to the lower case index.
    #[default]
    MinSize,
    /// Transition-minimizing selection within a size budget per block.
    PowerAware {
        /// How many extra encoded bits per block the selector may spend.
        max_extra_bits: usize,
    },
}

/// Per-case occurrence counts and size bookkeeping for one encoding run —
/// the paper's `N_1 … N_9` (Table VI) plus derived sizes.
///
/// This is the *local tally* the streaming encoder keeps on the hot
/// path: per block one case count, one block and the case's size, and
/// the `X` of each verbatim half by popcount (pad `X` included); a
/// window of all-`X` blocks is tallied in one step. At
/// [`StreamEncoder::finish`] it is flushed once into the process-wide
/// [`ninec_obs`] registry (counters `ninec.encode.case.C1 … C9`,
/// `ninec.encode.blocks`, …). The public fields and accessors are kept
/// as a thin per-run compatibility shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodeStats {
    /// Occurrences of each case, `C1` … `C9`.
    pub case_counts: [u64; 9],
    /// Total number of `K`-bit blocks encoded.
    pub blocks: u64,
    /// Total encoded bits `|T_E|` (codewords + verbatim payload).
    pub encoded_bits: u64,
    /// Don't-care symbols that survived into the payload (leftover X).
    pub leftover_x: u64,
}

impl EncodeStats {
    /// Occurrences of `case`.
    ///
    /// **Deprecation note:** for cross-run aggregation prefer the
    /// `ninec.encode.case.C*` counters in the [`ninec_obs::global`]
    /// registry (see [`crate::metrics`]); this accessor only sees one
    /// run's tally and will eventually become crate-private.
    pub fn count(&self, case: Case) -> u64 {
        self.case_counts[case.index()]
    }

    /// Flushes this tally into the global [`ninec_obs`] registry under
    /// the `ninec.encode.*` names, exactly as [`StreamEncoder::finish`]
    /// does automatically. `table`/`k` rebuild the per-block size
    /// histogram from the case counts; `source_len` is `|T_D|`.
    ///
    /// This is the compatibility bridge for callers that assembled their
    /// stats manually (e.g. from the scalar reference encoder).
    pub fn publish(&self, source_len: usize, table: &CodeTable, k: usize) {
        crate::metrics::publish_encode(self, source_len, table, k);
    }

    /// Accumulates `part` into `self` (case counts, blocks, bits,
    /// leftover X).
    pub(crate) fn merge(&mut self, part: &EncodeStats) {
        for (a, p) in self.case_counts.iter_mut().zip(part.case_counts) {
            *a += p;
        }
        self.blocks += part.blocks;
        self.encoded_bits += part.encoded_bits;
        self.leftover_x += part.leftover_x;
    }

    /// Recomputes `|T_E|` from the counts via the paper's formula:
    /// `Σ N_i · (|C_i| + payload_i(K))`. Equals [`EncodeStats::encoded_bits`]
    /// for the table/K the stats were produced with.
    pub fn size_by_formula(&self, table: &CodeTable, k: usize) -> u64 {
        ALL_CASES
            .into_iter()
            .map(|c| self.count(c) * table.block_bits(c, k) as u64)
            .sum()
    }
}

impl fmt::Display for EncodeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for case in ALL_CASES {
            write!(f, "{}={} ", case.label(), self.count(case))?;
        }
        write!(f, "blocks={} |T_E|={}", self.blocks, self.encoded_bits)
    }
}

/// The result of compressing a test stream with 9C.
///
/// The compressed stream is itself three-valued: codeword bits are care
/// bits, but verbatim payload keeps its don't-cares — the "leftover X" the
/// paper trades off against compression ratio. Use
/// [`Encoded::to_bitvec`](Encoded::to_bitvec) to bind them before shipping
/// to an ATE.
#[derive(Debug, Clone, PartialEq)]
pub struct Encoded {
    k: usize,
    table: CodeTable,
    stream: TritVec,
    source_len: usize,
    stats: EncodeStats,
}

impl Encoded {
    /// Assembles an `Encoded` from already-validated parts — used by the
    /// engine to merge per-segment encodes into one stream value.
    pub(crate) fn from_parts(
        k: usize,
        table: CodeTable,
        stream: TritVec,
        source_len: usize,
        stats: EncodeStats,
    ) -> Self {
        Self {
            k,
            table,
            stream,
            source_len,
            stats,
        }
    }

    /// Replaces the compressed stream `T_E`, keeping `k`, the table and
    /// `source_len` from `self`.
    ///
    /// This is the corruption-modelling hook for robustness harnesses: it
    /// presents an arbitrary (bit-flipped, truncated, spliced) stream to
    /// the decoder under the original header parameters, exactly what a
    /// damaged ATE image looks like. Decoding the result must yield a
    /// typed [`crate::DecodeError`] or a correct-length stream — never a
    /// panic. Normal encoding never needs this.
    #[must_use]
    pub fn with_stream(mut self, stream: TritVec) -> Self {
        self.stream = stream;
        self
    }

    /// Block size `K` used for encoding.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The code table used for encoding.
    pub fn table(&self) -> &CodeTable {
        &self.table
    }

    /// The compressed stream `T_E` (codewords are care bits, payload may
    /// contain `X`).
    pub fn stream(&self) -> &TritVec {
        &self.stream
    }

    /// Original (unpadded) length of the source stream, `|T_D|`.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// `|T_E|` in bits.
    pub fn compressed_len(&self) -> usize {
        self.stream.len()
    }

    /// Encoding statistics.
    pub fn stats(&self) -> &EncodeStats {
        &self.stats
    }

    /// Compression ratio in percent:
    /// `CR% = (|T_D| − |T_E|) / |T_D| · 100`. Negative when the code
    /// expands the data.
    pub fn compression_ratio(&self) -> f64 {
        if self.source_len == 0 {
            return 0.0;
        }
        (self.source_len as f64 - self.compressed_len() as f64) / self.source_len as f64 * 100.0
    }

    /// Leftover don't-cares as a percentage of `|T_D|` (the paper's LX%).
    pub fn leftover_x_percent(&self) -> f64 {
        if self.source_len == 0 {
            return 0.0;
        }
        self.stats.leftover_x as f64 / self.source_len as f64 * 100.0
    }

    /// Binds the leftover don't-cares with `strategy`, yielding the bit
    /// stream an ATE would store.
    pub fn to_bitvec(
        &self,
        strategy: ninec_testdata::fill::FillStrategy,
    ) -> ninec_testdata::bits::BitVec {
        ninec_testdata::fill::fill_trits(&self.stream, strategy)
            .to_bitvec()
            .expect("fill produces a fully specified stream")
    }
}

/// Error: invalid block size for 9C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidBlockSize {
    /// The rejected size.
    pub k: usize,
}

impl fmt::Display for InvalidBlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block size must be even and at least 4, got {}", self.k)
    }
}

impl std::error::Error for InvalidBlockSize {}

/// The 9C encoder for a fixed block size `K`.
///
/// # Examples
///
/// ```
/// use ninec::encode::Encoder;
/// use ninec_testdata::trit::TritVec;
///
/// let encoder = Encoder::new(8)?;
/// // One all-zero-compatible block and one all-ones block: "0" + "10".
/// let stream: TritVec = "0X0X00XX1111X111".parse()?;
/// let encoded = encoder.encode_stream(&stream);
/// assert_eq!(encoded.stream().to_string(), "010");
/// assert!(encoded.compression_ratio() > 80.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Encoder {
    k: usize,
    table: CodeTable,
    select: CaseSelect,
    /// The case lookup for `table`, `k` and `select`.
    lut: EncodeTable,
}

impl Encoder {
    /// Creates an encoder with the paper's code table.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBlockSize`] unless `k` is even and at least 4.
    pub fn new(k: usize) -> Result<Self, InvalidBlockSize> {
        Self::with_table(k, CodeTable::paper())
    }

    /// Creates an encoder with a custom (e.g. frequency-reassigned) table.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBlockSize`] unless `k` is even and at least 4.
    pub fn with_table(k: usize, table: CodeTable) -> Result<Self, InvalidBlockSize> {
        if k < 4 || !k.is_multiple_of(2) {
            return Err(InvalidBlockSize { k });
        }
        let select = CaseSelect::MinSize;
        Ok(Self {
            k,
            lut: EncodeTable::new(&table, k, select),
            table,
            select,
        })
    }

    /// Sets the case-selection policy (see [`CaseSelect`]).
    pub fn with_case_select(mut self, select: CaseSelect) -> Self {
        self.select = select;
        self.lut = EncodeTable::new(&self.table, self.k, select);
        self
    }

    /// Block size `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The encoder's code table.
    pub fn table(&self) -> &CodeTable {
        &self.table
    }

    /// Compresses a flat symbol stream.
    ///
    /// The stream is padded with `X` to a multiple of `K`; the pad is
    /// free to encode (it extends the final block's halves) and the decoder
    /// drops it again via [`Encoded::source_len`].
    ///
    /// This is a thin wrapper over the streaming path: it feeds the whole
    /// stream to a [`StreamEncoder`] writing into a [`TritVec`] sink. For
    /// `K ≤ 64` each block costs two masks per half on a word of the
    /// packed care/value planes, one table lookup and one push per
    /// codeword and per verbatim half, and a word of all-`X` trits costs
    /// one step; for `K > 64` each half is classified in `O(K/64)` word
    /// operations. Nothing is allocated per block.
    pub fn encode_stream(&self, stream: &TritVec) -> Encoded {
        let _span = ninec_obs::catalogue::SPAN_ENCODE_STREAM.start();
        let t0 = ninec_obs::runtime_enabled().then(std::time::Instant::now);
        let mut out = TritVec::with_capacity(stream.len() / 4 + 8);
        let mut enc = self.stream_encoder(&mut out);
        enc.feed(stream.as_slice());
        let totals = enc.finish();
        if let Some(t0) = t0 {
            crate::metrics::publish_encode_throughput(stream.len(), t0.elapsed().as_secs_f64());
        }
        Encoded {
            k: self.k,
            table: self.table.clone(),
            stream: out,
            source_len: totals.source_len,
            stats: totals.stats,
        }
    }

    /// Compresses chunked input, proving chunk boundaries are invisible:
    /// the result is bit-identical to [`Encoder::encode_stream`] on the
    /// concatenation of the chunks.
    pub fn encode_chunked<'a, I>(&self, chunks: I) -> Encoded
    where
        I: IntoIterator<Item = TritSlice<'a>>,
    {
        let _span = ninec_obs::catalogue::SPAN_ENCODE_CHUNKED.start();
        let t0 = ninec_obs::runtime_enabled().then(std::time::Instant::now);
        let mut out = TritVec::new();
        let mut enc = self.stream_encoder(&mut out);
        for chunk in chunks {
            enc.feed(chunk);
        }
        let totals = enc.finish();
        if let Some(t0) = t0 {
            crate::metrics::publish_encode_throughput(
                totals.source_len,
                t0.elapsed().as_secs_f64(),
            );
        }
        Encoded {
            k: self.k,
            table: self.table.clone(),
            stream: out,
            source_len: totals.source_len,
            stats: totals.stats,
        }
    }

    /// Compresses a test set as one stream, pattern after pattern — the
    /// single-scan-chain arrangement of the paper's Figure 4(a).
    pub fn encode_set(&self, set: &TestSet) -> Encoded {
        self.encode_stream(set.as_stream())
    }

    /// Starts a streaming encode writing into `sink`.
    ///
    /// Feed chunks of any size with [`StreamEncoder::feed`]; the encoder
    /// buffers at most `K − 1` symbols between calls, so peak memory is
    /// `O(K + chunk)` regardless of stream length. Call
    /// [`StreamEncoder::finish`] to flush the final partial block (padded
    /// with `X`) and collect the [`EncodeStats`].
    ///
    /// # Examples
    ///
    /// ```
    /// use ninec::encode::Encoder;
    /// use ninec_testdata::trit::TritVec;
    ///
    /// let encoder = Encoder::new(8)?;
    /// let stream: TritVec = "0X0X00XX1111X111".parse()?;
    ///
    /// let mut out = TritVec::new();
    /// let mut enc = encoder.stream_encoder(&mut out);
    /// for chunk in stream.chunks(3) {
    ///     enc.feed(chunk);
    /// }
    /// let totals = enc.finish();
    /// assert_eq!(out.to_string(), "010");
    /// assert_eq!(totals.source_len, 16);
    /// assert_eq!(totals.stats.blocks, 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn stream_encoder<'a, S: BitSink>(&'a self, sink: &'a mut S) -> StreamEncoder<'a, S> {
        StreamEncoder {
            encoder: self,
            sink,
            out: WordOut::default(),
            pending: TritVec::with_capacity(self.k),
            stats: EncodeStats::default(),
            source_len: 0,
            prev_last: None,
        }
    }

    /// Scalar per-symbol reference encoder, kept as the differential
    /// oracle of the word encoder. It classifies each half symbol by
    /// symbol and applies the [`CaseSelect`] rule by searching all nine
    /// cases, and produces a stream bit-identical to
    /// [`Encoder::encode_stream`].
    #[doc(hidden)]
    pub fn encode_stream_scalar(&self, stream: &TritVec) -> Encoded {
        let k = self.k;
        let half = k / 2;
        let source_len = stream.len();
        let padded_len = source_len.div_ceil(k) * k;
        let budget = match self.select {
            CaseSelect::MinSize => 0,
            CaseSelect::PowerAware { max_extra_bits } => max_extra_bits,
        };
        let mut out = TritVec::with_capacity(padded_len / 4);
        let mut stats = EncodeStats::default();
        // For power-aware selection: the value the scan chain last saw.
        let mut prev_last: Option<bool> = None;
        for start in (0..padded_len).step_by(k) {
            // Pad symbols past the source are X.
            let trit = |i: usize| stream.get(start + i).unwrap_or(Trit::X);
            let left = HalfClass::classify_scalar((0..half).map(trit));
            let right = HalfClass::classify_scalar((half..k).map(trit));
            // What a half under `spec` shows at its trit `i` once decoded.
            let shows = |spec: HalfSpec, i: usize| match spec {
                HalfSpec::Zero => Some(false),
                HalfSpec::One => Some(true),
                HalfSpec::Mismatch => trit(i).value(),
            };
            let seam = |a: Option<bool>, b: Option<bool>| {
                usize::from(matches!((a, b), (Some(x), Some(y)) if x != y))
            };
            let feasible: Vec<Case> = ALL_CASES
                .into_iter()
                .filter(|case| {
                    let (ls, rs) = case.halves();
                    left.satisfies(ls) && right.satisfies(rs)
                })
                .collect();
            let cost = |case: Case| self.table.block_bits(case, k);
            let cheapest = feasible
                .iter()
                .map(|&c| cost(c))
                .min()
                .expect("MM is always feasible");
            let case = feasible
                .into_iter()
                .filter(|&case| cost(case) <= cheapest.saturating_add(budget))
                .min_by_key(|&case| {
                    let (ls, rs) = case.halves();
                    let penalty = match self.select {
                        CaseSelect::MinSize => 0,
                        CaseSelect::PowerAware { .. } => {
                            seam(prev_last, shows(ls, 0))
                                + seam(shows(ls, half - 1), shows(rs, half))
                        }
                    };
                    (penalty, cost(case), case.index())
                })
                .expect("the cheapest case is within any budget");
            stats.case_counts[case.index()] += 1;
            stats.blocks += 1;
            for bit in self.table.codeword(case).iter_bits() {
                out.push(Trit::from(bit));
            }
            let (ls, rs) = case.halves();
            for (spec, offset) in [(ls, 0), (rs, half)] {
                if spec == HalfSpec::Mismatch {
                    for i in offset..offset + half {
                        let t = trit(i);
                        if t.is_x() {
                            stats.leftover_x += 1;
                        }
                        out.push(t);
                    }
                }
            }
            prev_last = shows(rs, k - 1);
        }
        stats.encoded_bits = out.len() as u64;
        Encoded {
            k,
            table: self.table.clone(),
            stream: out,
            source_len,
            stats,
        }
    }
}

/// One case as the encoder sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    case: Case,
    /// The codeword, LSB-first: bit `j` is the `j`-th bit sent.
    code: u64,
    /// Codeword length in bits.
    len: usize,
    /// Codeword plus verbatim payload at the encoder's `K`.
    bits: u64,
    /// The halves' specs; a [`HalfSpec::Mismatch`] half travels verbatim.
    left: HalfSpec,
    right: HalfSpec,
}

/// The all-`X` block's case, when it sends no verbatim half, with its
/// codeword repeated into one word: a window of all-`X` blocks is pushed
/// `per` codewords at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AllX {
    entry: Entry,
    /// `per` copies of the codeword back to back, LSB-first.
    word: u64,
    per: usize,
}

/// The encode side of a [`CodeTable`] at one block size and case policy:
/// which case a block takes, found from its halves' classes in one
/// lookup — the mirror of the decoder's table.
///
/// A half's class is two bits: bit 0 is set when the half is compatible
/// with all-zeros (no care 1), bit 1 when with all-ones (no care 0). So
/// class 0 is a mismatch half and class 3 an all-`X` one, and the 16
/// class pairs index the table as `left | right << 2`. Each pair holds
/// the cases its policy may choose, in (cost, index) order: the feasible
/// cases within the policy's bit budget. [`CaseSelect::MinSize`] keeps
/// only the first, the cheapest with ties to the lower index;
/// [`CaseSelect::PowerAware`] scores the list by seam transitions. It
/// serves any [`CodeTable::from_lengths`] table, whatever its lengths.
#[derive(Debug, Clone, PartialEq)]
struct EncodeTable {
    /// Each class pair's candidates in (cost, index) order: the first
    /// `counts[index]` entries of row `index`. `MinSize` keeps one.
    rows: [[Entry; 9]; 16],
    counts: [usize; 16],
    /// Whether blocks pick among candidates by seam transitions.
    power_aware: bool,
    /// The all-`X` step, under `MinSize` only: `PowerAware`'s choice for
    /// an all-`X` block depends on the previous block's last value.
    all_x: Option<AllX>,
}

impl EncodeTable {
    fn new(table: &CodeTable, k: usize, select: CaseSelect) -> Self {
        let budget = match select {
            CaseSelect::MinSize => None,
            CaseSelect::PowerAware { max_extra_bits } => Some(max_extra_bits as u64),
        };
        let entry = |case: Case| {
            let word = table.codeword(case);
            let (left, right) = case.halves();
            Entry {
                case,
                code: word
                    .iter_bits()
                    .enumerate()
                    .fold(0, |acc, (j, bit)| acc | u64::from(bit) << j),
                len: word.len(),
                bits: table.block_bits(case, k) as u64,
                left,
                right,
            }
        };
        let class = |code: usize| HalfClass {
            can_zero: code & 1 != 0,
            can_one: code & 2 != 0,
        };
        let mut rows = [[entry(Case::MM); 9]; 16];
        let mut counts = [0; 16];
        for (index, (row, count)) in rows.iter_mut().zip(&mut counts).enumerate() {
            let (left, right) = (class(index & 3), class(index >> 2));
            for case in ALL_CASES {
                let (ls, rs) = case.halves();
                if left.satisfies(ls) && right.satisfies(rs) {
                    row[*count] = entry(case);
                    *count += 1;
                }
            }
            // Stable: equal costs stay in case order. MM is always
            // feasible, so the row is never empty.
            row[..*count].sort_by_key(|e| e.bits);
            let cheapest = row[0].bits;
            *count = match budget {
                None => 1,
                Some(budget) => row[..*count]
                    .iter()
                    .take_while(|e| e.bits <= cheapest.saturating_add(budget))
                    .count(),
            };
        }
        let both = rows[15][0];
        let all_x = (budget.is_none()
            && both.left != HalfSpec::Mismatch
            && both.right != HalfSpec::Mismatch)
            .then(|| {
                let per = 64 / both.len;
                AllX {
                    entry: both,
                    word: (0..per).fold(0, |word, i| word | both.code << (i * both.len)),
                    per,
                }
            });
        Self {
            rows,
            counts,
            power_aware: budget.is_some(),
            all_x,
        }
    }

    /// `PowerAware`'s case for class pair `index`: the candidate with the
    /// fewest transitions at the previous-block seam and the half-to-half
    /// seam, ties to the earlier candidate (lower cost, then index).
    /// `edges` are the block's trits at `0`, `K/2 − 1` and `K/2`.
    fn pick(&self, index: usize, prev_last: Option<bool>, edges: [Option<bool>; 3]) -> &Entry {
        let seam = |a: Option<bool>, b: Option<bool>| {
            usize::from(matches!((a, b), (Some(x), Some(y)) if x != y))
        };
        let mut best = &self.rows[index][0];
        let mut best_penalty = usize::MAX;
        for entry in &self.rows[index][..self.counts[index]] {
            let penalty = seam(prev_last, shows(entry.left, edges[0]))
                + seam(shows(entry.left, edges[1]), shows(entry.right, edges[2]));
            if penalty < best_penalty {
                (best, best_penalty) = (entry, penalty);
            }
        }
        best
    }
}

/// The value a half under `spec` shows at an edge once decoded: its
/// constant, or for a verbatim half the edge trit's value (`None` for
/// `X`, pad included).
fn shows(spec: HalfSpec, trit: Option<bool>) -> Option<bool> {
    match spec {
        HalfSpec::Zero => Some(false),
        HalfSpec::One => Some(true),
        HalfSpec::Mismatch => trit,
    }
}

/// Totals collected by a [`StreamEncoder`] over its whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodeTotals {
    /// Per-case counts and `|T_E|` bookkeeping.
    pub stats: EncodeStats,
    /// Symbols fed in total, `|T_D|`.
    pub source_len: usize,
}

/// An in-progress streaming 9C encode (see [`Encoder::stream_encoder`]).
///
/// Holds at most one partial block (`< K` symbols) between
/// [`feed`](StreamEncoder::feed) calls; everything else goes straight to
/// the sink, so memory stays bounded no matter how long the stream is.
#[derive(Debug)]
pub struct StreamEncoder<'a, S: BitSink> {
    encoder: &'a Encoder,
    sink: &'a mut S,
    /// Output not yet in the sink: under a word, and empty between feeds.
    out: WordOut,
    pending: TritVec,
    stats: EncodeStats,
    source_len: usize,
    prev_last: Option<bool>,
}

impl<'a, S: BitSink> StreamEncoder<'a, S> {
    /// Feeds the next chunk of the source stream.
    ///
    /// Whole blocks are read straight off the chunk's packed planes; only
    /// a sub-block remainder (`< K` symbols) is buffered for the next
    /// call. Every block encoded so far is in the sink when it returns.
    pub fn feed(&mut self, mut chunk: TritSlice<'_>) {
        let k = self.encoder.k;
        self.source_len += chunk.len();
        // Top up a pending partial block first.
        if !self.pending.is_empty() {
            let take = (k - self.pending.len()).min(chunk.len());
            self.pending.extend_from_slice(chunk.subslice(0, take));
            chunk = chunk.subslice(take, chunk.len());
            if self.pending.len() < k {
                return; // chunk exhausted inside the pending block
            }
            let mut pending = std::mem::take(&mut self.pending);
            self.blocks(pending.as_slice());
            pending.truncate(0);
            self.pending = pending;
        }
        // Whole blocks straight off the chunk, no copies.
        let whole = chunk.len() / k * k;
        self.blocks(chunk.subslice(0, whole));
        // Buffer the remainder.
        self.pending
            .extend_from_slice(chunk.subslice(whole, chunk.len()));
        self.out.flush(self.sink);
    }

    /// Flushes the final partial block (implicitly padded with `X`) and
    /// returns the run's totals.
    ///
    /// Also publishes the tally into the global [`ninec_obs`] registry
    /// (one batched flush per run — the per-block hot loop never touches
    /// an atomic); a no-op while runtime telemetry is off.
    pub fn finish(self) -> EncodeTotals {
        let (table, k) = (&self.encoder.table, self.encoder.k);
        let totals = self.finish_unpublished();
        crate::metrics::publish_encode(&totals.stats, totals.source_len, table, k);
        totals
    }

    /// [`finish`](Self::finish) without publishing: for sizing passes,
    /// which encode nothing the caller keeps.
    pub(crate) fn finish_unpublished(mut self) -> EncodeTotals {
        if !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            let block = pending.as_slice();
            let k = self.encoder.k;
            if k <= 64 {
                // Trits past the block's end read as X: the pad.
                self.word_block(block.care_word(0, k), block.value_word(0, k));
            } else {
                self.slice_block(block);
            }
            self.out.flush(self.sink);
        }
        EncodeTotals {
            stats: self.stats,
            source_len: self.source_len,
        }
    }

    /// Encodes `src`, a whole number of blocks.
    fn blocks(&mut self, src: TritSlice<'_>) {
        let k = self.encoder.k;
        if k > 64 {
            for start in (0..src.len()).step_by(k) {
                self.slice_block(src.subslice(start, start + k));
            }
            return;
        }
        let block_mask = low_bits(k);
        let mut input = WordIn::new(src, 0);
        while input.left() > 0 {
            // Refilled only when it holds less than a block.
            input.want(k);
            if let (0, Some(all_x)) = (input.care, self.encoder.lut.all_x) {
                let n = input.len / k;
                self.all_x_blocks(all_x, n);
                input.consume(n * k);
                continue;
            }
            self.word_block(input.care & block_mask, input.value & block_mask);
            input.consume(k);
        }
    }

    /// Encodes one block of `K ≤ 64` trits given as its care/value words;
    /// their bits from `K` on are zero.
    #[inline]
    fn word_block(&mut self, care: u64, value: u64) {
        let half = self.encoder.k / 2;
        let half_mask = low_bits(half);
        let zeros = care & !value;
        let class = |ones: u64, zeros: u64| usize::from(ones == 0) | usize::from(zeros == 0) << 1;
        let index =
            class(value & half_mask, zeros & half_mask) | class(value >> half, zeros >> half) << 2;
        let entry = self.codeword(index, |i| {
            (care >> i & 1 == 1).then_some(value >> i & 1 == 1)
        });
        if entry.left == HalfSpec::Mismatch {
            self.verbatim(care & half_mask, value & half_mask, half);
        }
        if entry.right == HalfSpec::Mismatch {
            self.verbatim(care >> half, value >> half, half);
        }
    }

    /// Encodes one block of `K > 64` trits given as a slice of `1 ..= K`
    /// symbols; symbols past its end are `X` pad.
    fn slice_block(&mut self, block: TritSlice<'_>) {
        let half = self.encoder.k / 2;
        let len = block.len();
        let class =
            |(can_zero, can_one): (bool, bool)| usize::from(can_zero) | usize::from(can_one) << 1;
        let split = half.min(len);
        let index =
            class(block.classify_range(0, split)) | class(block.classify_range(split, len)) << 2;
        let entry = self.codeword(index, |i| block.get(i).and_then(Trit::value));
        for (spec, from) in [(entry.left, 0), (entry.right, half)] {
            if spec == HalfSpec::Mismatch {
                // A word per step; reads past the block's end are pad X.
                let mut done = 0;
                while done < half {
                    let n = (half - done).min(64);
                    let at = (from + done).min(len);
                    self.verbatim(block.care_word(at, n), block.value_word(at, n), n);
                    done += n;
                }
            }
        }
    }

    /// Picks the case of the block whose halves have class pair `index`,
    /// tallies it and pushes its codeword. `trit(i)` is the value of the
    /// block's trit `i` (`None` for `X` or pad); only `PowerAware` reads
    /// it, for its seams and for the value the block ends on.
    #[inline]
    fn codeword(&mut self, index: usize, trit: impl Fn(usize) -> Option<bool>) -> &'a Entry {
        let encoder: &'a Encoder = self.encoder;
        let lut = &encoder.lut;
        let entry = if lut.power_aware {
            let half = encoder.k / 2;
            let entry = lut.pick(index, self.prev_last, [trit(0), trit(half - 1), trit(half)]);
            self.prev_last = shows(entry.right, trit(encoder.k - 1));
            entry
        } else {
            &lut.rows[index][0]
        };
        self.stats.case_counts[entry.case.index()] += 1;
        self.stats.blocks += 1;
        self.stats.encoded_bits += entry.bits;
        self.out
            .push(self.sink, low_bits(entry.len), entry.code, entry.len);
        entry
    }

    /// Pushes `n <= 64` trits of a verbatim half and counts their `X`.
    #[inline]
    fn verbatim(&mut self, care: u64, value: u64, n: usize) {
        self.stats.leftover_x += (n - care.count_ones() as usize) as u64;
        self.out.push(self.sink, care, value, n);
    }

    /// Takes `n` all-`X` blocks in one step: `n` copies of the all-`X`
    /// codeword, pushed `all_x.per` at a time.
    fn all_x_blocks(&mut self, all_x: AllX, n: usize) {
        let entry = all_x.entry;
        self.stats.case_counts[entry.case.index()] += n as u64;
        self.stats.blocks += n as u64;
        self.stats.encoded_bits += n as u64 * entry.bits;
        let mut left = n;
        while left > 0 {
            let m = left.min(all_x.per);
            let mask = low_bits(m * entry.len);
            self.out
                .push(self.sink, mask, all_x.word & mask, m * entry.len);
            left -= m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(k: usize, s: &str) -> Encoded {
        Encoder::new(k).unwrap().encode_stream(&s.parse().unwrap())
    }

    #[test]
    fn rejects_bad_block_sizes() {
        assert!(Encoder::new(0).is_err());
        assert!(Encoder::new(2).is_err());
        assert!(Encoder::new(7).is_err());
        assert!(Encoder::new(4).is_ok());
    }

    #[test]
    fn all_zero_block_is_one_bit() {
        let e = enc(8, "0X00X0X0");
        assert_eq!(e.stream().to_string(), "0");
        assert_eq!(e.stats().count(Case::ZZ), 1);
        assert_eq!(e.stats().leftover_x, 0);
    }

    #[test]
    fn table_one_example_cases() {
        // K = 8 blocks exercising C2, C3, C4.
        let e = enc(8, "11111111");
        assert_eq!(e.stream().to_string(), "10");
        let e = enc(8, "0000X111");
        assert_eq!(e.stream().to_string(), "11010");
        let e = enc(8, "1X110000");
        assert_eq!(e.stream().to_string(), "11011");
    }

    #[test]
    fn mismatch_halves_travel_verbatim_with_their_x() {
        // Left 0-compatible, right mismatch "01X0": C5 + payload.
        let e = enc(8, "0X0X01X0");
        assert_eq!(e.stream().to_string(), "1110001X0");
        assert_eq!(e.stats().count(Case::ZM), 1);
        assert_eq!(e.stats().leftover_x, 1);
        assert!((e.leftover_x_percent() - 100.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn full_mismatch_block() {
        let e = enc(8, "01X0101X");
        assert_eq!(e.stream().to_string(), "110001X0101X");
        assert_eq!(e.stats().count(Case::MM), 1);
        assert_eq!(e.stats().leftover_x, 2);
    }

    #[test]
    fn padding_extends_last_block_with_x() {
        // 10 symbols at K = 8: second block is "01" + 6 X pads -> mismatch?
        // "01XXXXXX" halves: "01XX" mismatch? contains 0 and 1 -> yes, left
        // mismatch; right all-X -> MZ.
        let e = enc(8, "0000000001");
        assert_eq!(e.source_len(), 10);
        assert_eq!(e.stats().count(Case::ZZ), 1);
        assert_eq!(e.stats().count(Case::MZ), 1);
        // Stream: "0" + C6 "11101" + verbatim "01XX".
        assert_eq!(e.stream().to_string(), "01110101XX");
    }

    #[test]
    fn formula_matches_emitted_length() {
        let e = enc(8, "0X0X01X001X0101X111111110000X111");
        assert_eq!(
            e.stats().size_by_formula(e.table(), e.k()),
            e.compressed_len() as u64
        );
    }

    #[test]
    fn compression_ratio_sign() {
        // Highly compressible: all X.
        let e = enc(16, &"X".repeat(160));
        assert!(e.compression_ratio() > 90.0);
        // Incompressible: alternating cares -> every block MM, CR < 0.
        let s: String = std::iter::repeat_n("01", 40)
            .flat_map(|x| x.chars())
            .collect();
        let e = enc(8, &s);
        assert!(e.compression_ratio() < 0.0);
    }

    #[test]
    fn to_bitvec_binds_all_x() {
        use ninec_testdata::fill::FillStrategy;
        let e = enc(8, "0X0X01X0");
        let bits = e.to_bitvec(FillStrategy::Zero);
        assert_eq!(bits.to_string(), "111000100");
    }

    #[test]
    fn stats_display_mentions_all_cases() {
        let e = enc(8, "00000000");
        let s = e.stats().to_string();
        assert!(s.contains("C1=1") && s.contains("C9=0"));
    }

    #[test]
    fn empty_stream() {
        let e = enc(8, "");
        assert_eq!(e.compressed_len(), 0);
        assert_eq!(e.compression_ratio(), 0.0);
        assert_eq!(e.stats().blocks, 0);
    }

    #[test]
    fn chunked_feed_is_invisible() {
        let src: TritVec = "0X0X01X001X0101X111111110000X1111X0".parse().unwrap();
        let one_shot = Encoder::new(8).unwrap().encode_stream(&src);
        for chunk in [1usize, 3, 7, 8, 64] {
            let chunked = Encoder::new(8).unwrap().encode_chunked(src.chunks(chunk));
            assert_eq!(chunked, one_shot, "chunk size {chunk}");
        }
    }

    #[test]
    fn scalar_reference_is_bit_identical() {
        let src: TritVec = "0X0X01X001X0101X111111110000X111XXXXXXXX01"
            .parse()
            .unwrap();
        for k in [4usize, 8, 16, 32] {
            let word = Encoder::new(k).unwrap().encode_stream(&src);
            let scalar = Encoder::new(k).unwrap().encode_stream_scalar(&src);
            assert_eq!(word, scalar, "K={k}");
        }
    }

    /// `MinSize`'s entry for every class pair is [`choose_case`]'s
    /// choice, for the paper's table and for other length multisets.
    ///
    /// [`choose_case`]: crate::block::choose_case
    #[test]
    fn encode_table_is_the_greedy_choice_in_one_lookup() {
        use crate::code::PAPER_LENGTHS;
        for lengths in [
            PAPER_LENGTHS,
            [4, 2, 5, 5, 5, 5, 5, 5, 1],
            [2, 2, 3, 4, 5, 6, 7, 8, 9],
            [1, 2, 3, 4, 5, 6, 7, 8, 16],
            [5, 5, 5, 5, 1, 3, 3, 4, 5],
        ] {
            let table = CodeTable::from_lengths(&lengths).unwrap();
            for k in [4usize, 6, 8, 16, 64, 130] {
                let lut = EncodeTable::new(&table, k, CaseSelect::MinSize);
                for (index, row) in lut.rows.iter().enumerate() {
                    let class = |code: usize| HalfClass {
                        can_zero: code & 1 != 0,
                        can_one: code & 2 != 0,
                    };
                    let want =
                        crate::block::choose_case(class(index & 3), class(index >> 2), &table, k);
                    assert_eq!(
                        row[0].case, want,
                        "lengths {lengths:?}, K={k}, index {index}"
                    );
                    assert_eq!(lut.counts[index], 1);
                }
            }
        }
    }

    #[test]
    fn all_x_blocks_with_a_verbatim_half_take_no_shortcut() {
        // C5 (ZM) gets the 1-bit codeword: at K = 4 an all-X block costs
        // 1 + 2 bits as ZM against 5 as any uniform case, so it sends its
        // right half verbatim, pad X included.
        let table = CodeTable::from_lengths(&[5, 5, 5, 5, 1, 3, 3, 4, 5]).unwrap();
        let enc = Encoder::with_table(4, table).unwrap();
        assert_eq!(enc.lut.all_x, None);
        let src: TritVec = format!("{}0110{}", "X".repeat(150), "X".repeat(73))
            .parse()
            .unwrap();
        let word = enc.encode_stream(&src);
        assert_eq!(word, enc.encode_stream_scalar(&src));
        // 55 all-X blocks (the last one padded) and "XX01" are ZM;
        // "10XX" is MZ.
        assert_eq!(word.stats().count(Case::ZM), 56);
        assert_eq!(word.stats().count(Case::MZ), 1);
        assert_eq!(word.stats().leftover_x, 2 * 55);
    }

    #[test]
    fn counting_sink_sizes_without_buffering() {
        use crate::stream::BitCounter;
        let src: TritVec = "0X0X01X001X0101X1111111100".parse().unwrap();
        let enc = Encoder::new(8).unwrap();
        let mut counter = BitCounter::default();
        let mut se = enc.stream_encoder(&mut counter);
        se.feed(src.as_slice());
        let totals = se.finish();
        let full = enc.encode_stream(&src);
        assert_eq!(counter.bits(), full.compressed_len() as u64);
        assert_eq!(totals.stats, *full.stats());
        assert_eq!(totals.stats.encoded_bits, counter.bits());
    }

    #[test]
    fn streaming_buffer_stays_sub_block() {
        // Feed one symbol at a time; the pending buffer must never reach K.
        let src: TritVec = "01X0101X0X0X01X011111111".parse().unwrap();
        let mut out = TritVec::new();
        let enc = Encoder::new(8).unwrap();
        let mut se = enc.stream_encoder(&mut out);
        for chunk in src.chunks(1) {
            se.feed(chunk);
            assert!(se.pending.len() < 8, "pending {} >= K", se.pending.len());
        }
        let totals = se.finish();
        let full = enc.encode_stream(&src);
        assert_eq!(&out, full.stream());
        assert_eq!(totals.source_len, src.len());
    }

    #[test]
    fn power_aware_keeps_all_x_blocks_on_the_previous_value() {
        // "1111 1111" then all-X: MinSize binds the X block to zeros
        // (C1, 1 bit); PowerAware spends one extra bit on C2 to avoid the
        // 1->0 seam transition.
        let src: TritVec = "11111111XXXXXXXX".parse().unwrap();
        let default = Encoder::new(8).unwrap().encode_stream(&src);
        assert_eq!(default.stats().count(Case::ZZ), 1);
        let quiet = Encoder::new(8)
            .unwrap()
            .with_case_select(CaseSelect::PowerAware { max_extra_bits: 1 })
            .encode_stream(&src);
        assert_eq!(quiet.stats().count(Case::OO), 2);
        assert_eq!(quiet.stats().count(Case::ZZ), 0);
        // Cost: one extra bit total.
        assert_eq!(quiet.compressed_len(), default.compressed_len() + 1);
    }

    #[test]
    fn power_aware_with_zero_budget_equals_min_size() {
        let src: TritVec = "11111111XXXXXXXX01X0XXXX".parse().unwrap();
        let a = Encoder::new(8).unwrap().encode_stream(&src);
        let b = Encoder::new(8)
            .unwrap()
            .with_case_select(CaseSelect::PowerAware { max_extra_bits: 0 })
            .encode_stream(&src);
        assert_eq!(a.stream(), b.stream());
    }

    #[test]
    fn power_aware_extra_cost_is_bounded_by_budget() {
        use ninec_testdata::gen::SyntheticProfile;
        let ts = SyntheticProfile::new("pw", 20, 120, 0.8).generate(5);
        for budget in [1usize, 4] {
            let default = Encoder::new(8).unwrap().encode_set(&ts);
            let quiet = Encoder::new(8)
                .unwrap()
                .with_case_select(CaseSelect::PowerAware {
                    max_extra_bits: budget,
                })
                .encode_set(&ts);
            let extra = quiet.compressed_len() as i64 - default.compressed_len() as i64;
            assert!(extra >= 0);
            assert!(
                extra as u64 <= budget as u64 * default.stats().blocks,
                "budget {budget}: extra {extra}"
            );
            // Still decodes compatibly.
            let dec = crate::session::DecodeSession::new().decode(&quiet).unwrap();
            let src = ts.as_stream();
            for i in 0..src.len() {
                let s = src.get(i).unwrap();
                if s.is_care() {
                    assert_eq!(Some(s), dec.get(i));
                }
            }
        }
    }

    #[test]
    fn power_aware_reduces_decoded_transitions() {
        use ninec_testdata::fill::{fill_trits, FillStrategy};
        use ninec_testdata::gen::SyntheticProfile;
        use ninec_testdata::power::wtm;
        let ts = SyntheticProfile::new("pwr", 30, 128, 0.8).generate(8);
        let measure = |select: CaseSelect| {
            let enc = Encoder::new(8)
                .unwrap()
                .with_case_select(select)
                .encode_set(&ts);
            let dec = crate::session::DecodeSession::new().decode(&enc).unwrap();
            wtm(&fill_trits(&dec, FillStrategy::MinTransition)
                .to_bitvec()
                .unwrap())
        };
        let default = measure(CaseSelect::MinSize);
        let quiet = measure(CaseSelect::PowerAware { max_extra_bits: 2 });
        assert!(
            quiet < default,
            "power-aware {quiet} should beat default {default}"
        );
    }
}
