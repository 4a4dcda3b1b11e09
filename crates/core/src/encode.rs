//! The 9C encoder.

use crate::block::HalfClass;
use crate::code::{Case, CodeTable, HalfSpec, ALL_CASES};
use crate::stream::BitSink;
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
/// Since the introduction of the [`crate::metrics`] telemetry layer this
/// struct is the *local tally* the streaming encoder keeps on the hot
/// path; at [`StreamEncoder::finish`] it is flushed once into the
/// process-wide [`ninec_obs`] registry (counters
/// `ninec.encode.case.C1 … C9`, `ninec.encode.blocks`, …). The public
/// fields and accessors are kept as a thin per-run compatibility shim.
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
        Ok(Self {
            k,
            table,
            select: CaseSelect::MinSize,
        })
    }

    /// Sets the case-selection policy (see [`CaseSelect`]).
    pub fn with_case_select(mut self, select: CaseSelect) -> Self {
        self.select = select;
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
    /// stream to a [`StreamEncoder`] writing into a [`TritVec`] sink. The
    /// hot loop classifies each `K/2` half in `O(K/64)` word operations on
    /// the packed care/value planes and never allocates per block.
    pub fn encode_stream(&self, stream: &TritVec) -> Encoded {
        let _span = ninec_obs::span("encode_stream");
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
        let _span = ninec_obs::span("encode_chunked");
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
            pending: TritVec::with_capacity(self.k),
            stats: EncodeStats::default(),
            source_len: 0,
            prev_last: None,
        }
    }

    /// Scalar per-symbol reference encoder, kept for differential testing
    /// and as the baseline of the throughput benchmarks. Produces a stream
    /// bit-identical to [`Encoder::encode_stream`].
    #[doc(hidden)]
    pub fn encode_stream_scalar(&self, stream: &TritVec) -> Encoded {
        let k = self.k;
        let source_len = stream.len();
        let padded_len = source_len.div_ceil(k) * k;
        let mut padded;
        let stream = if padded_len == source_len {
            stream
        } else {
            padded = stream.clone();
            for _ in source_len..padded_len {
                padded.push(Trit::X);
            }
            &padded
        };

        let mut out = TritVec::with_capacity(padded_len / 4);
        let mut stats = EncodeStats::default();
        let half = k / 2;
        // For power-aware selection: the value the scan chain last saw.
        let mut prev_last: Option<bool> = None;
        for start in (0..padded_len).step_by(k) {
            let block = stream.slice_view(start, start + k);
            let left = HalfClass::classify_scalar(
                (start..start + half).map(|i| stream.get(i).expect("in range")),
            );
            let right = HalfClass::classify_scalar(
                (start + half..start + k).map(|i| stream.get(i).expect("in range")),
            );
            let case = self.select_case(block, left, right, prev_last);
            stats.case_counts[case.index()] += 1;
            stats.blocks += 1;
            for bit in self.table.codeword(case).iter_bits() {
                out.push(Trit::from(bit));
            }
            let (ls, rs) = case.halves();
            for (spec, offset) in [(ls, 0), (rs, half)] {
                if spec == HalfSpec::Mismatch {
                    for i in start + offset..start + offset + half {
                        let t = stream.get(i).expect("in range");
                        if t.is_x() {
                            stats.leftover_x += 1;
                        }
                        out.push(t);
                    }
                }
            }
            prev_last = half_boundary_value(block, half, half, rs, BlockEdge::Last);
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

    /// Picks the block's case under the configured selection policy.
    ///
    /// `block` is the (possibly short, `X`-pad-implied) block slice;
    /// allocation-free: candidates are filtered in two passes over the
    /// fixed nine-case table.
    pub(crate) fn select_case(
        &self,
        block: TritSlice<'_>,
        left: HalfClass,
        right: HalfClass,
        prev_last: Option<bool>,
    ) -> Case {
        let k = self.k;
        let budget = match self.select {
            CaseSelect::MinSize => 0,
            CaseSelect::PowerAware { max_extra_bits } => max_extra_bits,
        };
        let feasible = |case: Case| {
            let (ls, rs) = case.halves();
            left.satisfies(ls) && right.satisfies(rs)
        };
        // A plain loop, not a filter/map/min chain: this runs once per
        // block, and rustc may leave the chain's `fold` out of line (it
        // did when unrelated functions moved between codegen units),
        // which slowed encode by a fifth. MM is always feasible, so
        // `best_cost` is always set.
        let mut best_cost = usize::MAX;
        for case in ALL_CASES {
            if feasible(case) {
                best_cost = best_cost.min(self.table.block_bits(case, k));
            }
        }
        let mut best: Option<((usize, usize, usize), Case)> = None;
        for case in ALL_CASES {
            if !feasible(case) {
                continue;
            }
            let cost = self.table.block_bits(case, k);
            if cost > best_cost + budget {
                continue;
            }
            let penalty = match self.select {
                CaseSelect::MinSize => 0,
                CaseSelect::PowerAware { .. } => seam_transitions(block, k, case, prev_last),
            };
            let key = (penalty, cost, case.index());
            if best.is_none_or(|(b, _)| key < b) {
                best = Some((key, case));
            }
        }
        best.expect("candidate set is non-empty").1
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
    pending: TritVec,
    stats: EncodeStats,
    source_len: usize,
    prev_last: Option<bool>,
}

impl<S: BitSink> StreamEncoder<'_, S> {
    /// Feeds the next chunk of the source stream.
    ///
    /// Whole blocks are classified word-parallel directly on the chunk's
    /// packed planes; only a sub-block remainder (`< K` symbols) is
    /// buffered for the next call.
    pub fn feed(&mut self, mut chunk: TritSlice<'_>) {
        let k = self.encoder.k;
        self.source_len += chunk.len();
        // Top up a pending partial block first.
        if !self.pending.is_empty() {
            let need = k - self.pending.len();
            let take = need.min(chunk.len());
            self.pending.extend_from_slice(chunk.subslice(0, take));
            chunk = chunk.subslice(take, chunk.len());
            if self.pending.len() == k {
                encode_block(
                    self.encoder,
                    self.sink,
                    &mut self.stats,
                    &mut self.prev_last,
                    self.pending.as_slice(),
                );
                self.pending.truncate(0);
            } else {
                return; // chunk exhausted inside the pending block
            }
        }
        // Whole blocks straight off the chunk, no copies.
        let whole = chunk.len() / k * k;
        let mut start = 0;
        while start < whole {
            encode_block(
                self.encoder,
                self.sink,
                &mut self.stats,
                &mut self.prev_last,
                chunk.subslice(start, start + k),
            );
            start += k;
        }
        // Buffer the remainder.
        if whole < chunk.len() {
            self.pending
                .extend_from_slice(chunk.subslice(whole, chunk.len()));
        }
    }

    /// Flushes the final partial block (implicitly padded with `X`) and
    /// returns the run's totals.
    ///
    /// Also publishes the tally into the global [`ninec_obs`] registry
    /// (one batched flush per run — the per-block hot loop never touches
    /// an atomic); a no-op while runtime telemetry is off.
    pub fn finish(mut self) -> EncodeTotals {
        if !self.pending.is_empty() {
            encode_block(
                self.encoder,
                self.sink,
                &mut self.stats,
                &mut self.prev_last,
                self.pending.as_slice(),
            );
        }
        crate::metrics::publish_encode(
            &self.stats,
            self.source_len,
            &self.encoder.table,
            self.encoder.k,
        );
        EncodeTotals {
            stats: self.stats,
            source_len: self.source_len,
        }
    }
}

/// Encodes one block given as a slice of `1 ..= K` symbols; symbols past
/// `block.len()` are implicit `X` padding (they classify as compatible
/// with everything, and pad positions inside a verbatim half are emitted
/// as `X` and counted as leftover don't-cares).
fn encode_block<S: BitSink>(
    enc: &Encoder,
    sink: &mut S,
    stats: &mut EncodeStats,
    prev_last: &mut Option<bool>,
    block: TritSlice<'_>,
) {
    let k = enc.k;
    let half = k / 2;
    let len = block.len();
    debug_assert!(len >= 1 && len <= k);
    let left = HalfClass::classify_slice(block, 0, half.min(len));
    let right = HalfClass::classify_slice(block, half.min(len), len);
    let case = enc.select_case(block, left, right, *prev_last);
    stats.case_counts[case.index()] += 1;
    stats.blocks += 1;
    stats.encoded_bits += enc.table.block_bits(case, k) as u64;
    for bit in enc.table.codeword(case).iter_bits() {
        sink.push_bit(bit);
    }
    let (ls, rs) = case.halves();
    for (spec, offset) in [(ls, 0), (rs, half)] {
        if spec == HalfSpec::Mismatch {
            let from = offset.min(len);
            let to = (offset + half).min(len);
            let sub = block.subslice(from, to);
            let pad = half - (to - from);
            stats.leftover_x += (sub.count_x() + pad) as u64;
            sink.push_slice(sub);
            sink.push_run(Trit::X, pad);
        }
    }
    *prev_last = half_boundary_value(block, half, half, rs, BlockEdge::Last);
}

/// Which edge of a half to inspect.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BlockEdge {
    First,
    Last,
}

/// The concrete value a half presents at one of its edges after decoding,
/// or `None` when it is data-dependent (an `X` in a verbatim payload).
/// Positions past `block.len()` are implicit pad `X` (also `None`).
fn half_boundary_value(
    block: TritSlice<'_>,
    half_start: usize,
    half: usize,
    spec: HalfSpec,
    edge: BlockEdge,
) -> Option<bool> {
    match spec {
        HalfSpec::Zero => Some(false),
        HalfSpec::One => Some(true),
        HalfSpec::Mismatch => {
            let idx = match edge {
                BlockEdge::First => half_start,
                BlockEdge::Last => half_start + half - 1,
            };
            if idx < block.len() {
                block.get(idx).and_then(Trit::value)
            } else {
                None
            }
        }
    }
}

/// Transitions a case introduces at the previous-block seam and the
/// half-to-half seam (only seams whose two sides are both known count).
fn seam_transitions(block: TritSlice<'_>, k: usize, case: Case, prev_last: Option<bool>) -> usize {
    let half = k / 2;
    let (ls, rs) = case.halves();
    let left_first = half_boundary_value(block, 0, half, ls, BlockEdge::First);
    let left_last = half_boundary_value(block, 0, half, ls, BlockEdge::Last);
    let right_first = half_boundary_value(block, half, half, rs, BlockEdge::First);
    let seam = |a: Option<bool>, b: Option<bool>| matches!((a, b), (Some(x), Some(y)) if x != y);
    seam(prev_last, left_first) as usize + seam(left_last, right_first) as usize
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
