//! The sink abstraction of the streaming 9C codec, and the word window
//! and accumulator both of its directions run through.
//!
//! The streaming encoder ([`crate::encode::StreamEncoder`]) and the
//! streaming decoder ([`crate::decode::StreamDecoder`]) both write their
//! output through a [`BitSink`], so neither forces its output into
//! memory: an encoder holds at most one partial block (`< K` symbols)
//! between feeds and a decoder at most one word of decoded trits. Both
//! read their input through one 64-trit window (`WordIn`) over a packed
//! [`TritSlice`] — or, when the decoder reads a frame segment, over the
//! segment's packed payload bytes: the encoder takes whole blocks from
//! it, the decoder codewords and payload halves. Both gather their
//! output in one 64-trit accumulator (`WordOut`), so the sink takes it a
//! word at a time ([`BitSink::push_word`]). Every encode and every
//! decode runs through these two.
//!
//! Both alphabets are three-valued: 9C codewords are fully specified bits,
//! but verbatim payload keeps its don't-cares (the paper's "leftover X"),
//! so the sink consumes [`Trit`]s rather than plain bits. [`TritVec`] is
//! the canonical in-memory sink; [`BitCounter`] measures `|T_E|` without
//! buffering anything.

use ninec_testdata::slice::TritSlice;
use ninec_testdata::trit::{Trit, TritVec};

/// A consumer of an encoded (or decoded) three-valued symbol stream.
///
/// Only [`BitSink::push_trit`] is required; the bulk methods have
/// symbol-at-a-time defaults and exist so word-parallel sinks like
/// [`TritVec`] can accept runs and packed slices in `O(len / 64)`.
///
/// # Examples
///
/// ```
/// use ninec::stream::{BitCounter, BitSink};
/// use ninec_testdata::trit::{Trit, TritVec};
///
/// // TritVec is a sink: bits, runs and verbatim trits all append.
/// let mut out = TritVec::new();
/// out.push_bit(true);
/// out.push_run(Trit::Zero, 4);
/// out.push_trit(Trit::X);
/// assert_eq!(out.to_string(), "10000X");
///
/// // BitCounter sizes the same stream without storing it.
/// let mut n = BitCounter::default();
/// n.push_bit(true);
/// n.push_run(Trit::Zero, 4);
/// n.push_trit(Trit::X);
/// assert_eq!(n.bits(), 6);
/// ```
pub trait BitSink {
    /// Appends one symbol.
    fn push_trit(&mut self, t: Trit);

    /// Appends one fully specified (care) bit.
    #[inline]
    fn push_bit(&mut self, bit: bool) {
        self.push_trit(Trit::from(bit));
    }

    /// Appends `n` copies of `t`.
    #[inline]
    fn push_run(&mut self, t: Trit, n: usize) {
        for _ in 0..n {
            self.push_trit(t);
        }
    }

    /// Appends a packed slice verbatim.
    #[inline]
    fn push_slice(&mut self, slice: TritSlice<'_>) {
        for t in slice.iter() {
            self.push_trit(t);
        }
    }

    /// Appends the `n <= 64` low trits of one care/value word pair; their
    /// higher bits are zero. The codec's word accumulator hands its
    /// output over this way, a word at a time.
    #[inline]
    fn push_word(&mut self, care: u64, value: u64, n: usize) {
        self.push_slice(TritSlice::from_raw(&[care], &[value], 0, n));
    }
}

impl BitSink for TritVec {
    #[inline]
    fn push_trit(&mut self, t: Trit) {
        self.push(t);
    }

    #[inline]
    fn push_run(&mut self, t: Trit, n: usize) {
        TritVec::push_run(self, t, n);
    }

    #[inline]
    fn push_slice(&mut self, slice: TritSlice<'_>) {
        self.extend_from_slice(slice);
    }

    #[inline]
    fn push_word(&mut self, care: u64, value: u64, n: usize) {
        self.push_words(care, value, n);
    }
}

/// A [`BitSink`] that only counts symbols — sizes `|T_E|` in O(1) memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitCounter {
    bits: u64,
}

impl BitCounter {
    /// Symbols pushed so far.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }
}

impl BitSink for BitCounter {
    #[inline]
    fn push_trit(&mut self, _t: Trit) {
        self.bits += 1;
    }

    #[inline]
    fn push_run(&mut self, _t: Trit, n: usize) {
        self.bits += n as u64;
    }

    #[inline]
    fn push_slice(&mut self, slice: TritSlice<'_>) {
        self.bits += slice.len() as u64;
    }

    #[inline]
    fn push_word(&mut self, _care: u64, _value: u64, n: usize) {
        self.bits += n as u64;
    }
}

/// A packed three-valued input the word window reads from: a
/// [`TritSlice`]'s two planes, or a frame segment's 2-bit payload bytes
/// ([`crate::engine::frame::PackedTrits`]).
pub(crate) trait TritSource: Copy {
    /// Trits in the input.
    fn len(&self) -> usize;

    /// The care and value words of the `n <= 64` trits from `pos`, with
    /// `pos + n <= len()`; the bits past them are zero.
    fn word(&self, pos: usize, n: usize) -> (u64, u64);
}

impl TritSource for TritSlice<'_> {
    #[inline]
    fn len(&self) -> usize {
        TritSlice::len(self)
    }

    #[inline]
    fn word(&self, pos: usize, n: usize) -> (u64, u64) {
        (self.care_word(pos, n), self.value_word(pos, n))
    }
}

/// The next (up to 64) trits of a packed input as one care/value word
/// pair: the encoder reads whole blocks from it, the decoder codewords
/// and payload halves, a word at a time.
pub(crate) struct WordIn<S> {
    pub(crate) src: S,
    /// Stream position of the window's first trit.
    pub(crate) pos: usize,
    pub(crate) care: u64,
    pub(crate) value: u64,
    /// Trits held; the bits past them are zero.
    pub(crate) len: usize,
}

impl<S: TritSource> WordIn<S> {
    /// An empty window at trit `pos` of `src`; the first
    /// [`want`](Self::want) fills it.
    #[inline]
    pub(crate) fn new(src: S, pos: usize) -> Self {
        Self {
            src,
            pos,
            care: 0,
            value: 0,
            len: 0,
        }
    }

    /// Trits of the stream from the window's start on.
    #[inline]
    pub(crate) fn left(&self) -> usize {
        self.src.len() - self.pos
    }

    /// Reloads the window unless it holds at least `n <= 64` trits; it
    /// then holds `min(64, left)`.
    #[inline]
    pub(crate) fn want(&mut self, n: usize) {
        if self.len < n {
            let len = self.left().min(64);
            (self.care, self.value) = self.src.word(self.pos, len);
            self.len = len;
        }
    }

    /// Drops the first `n <= len` trits the window holds.
    #[inline]
    pub(crate) fn consume(&mut self, n: usize) {
        self.care = self.care.checked_shr(n as u32).unwrap_or(0);
        self.value = self.value.checked_shr(n as u32).unwrap_or(0);
        self.len -= n;
        self.pos += n;
    }
}

/// Output trits gathered into one care/value word pair, so the sink
/// takes them 64 at a time.
#[derive(Debug, Default)]
pub(crate) struct WordOut {
    care: u64,
    value: u64,
    /// Trits held, always below 64 between calls.
    len: usize,
}

impl WordOut {
    /// Appends the `n <= 64` low trits of `care`/`value`; their higher
    /// bits must be zero.
    #[inline]
    pub(crate) fn push<O: BitSink>(&mut self, out: &mut O, care: u64, value: u64, n: usize) {
        self.care |= care << self.len;
        self.value |= value << self.len;
        let total = self.len + n;
        if total < 64 {
            self.len = total;
            return;
        }
        out.push_word(self.care, self.value, 64);
        // The new trits the full word took: shifting them out leaves the rest.
        let taken = (64 - self.len) as u32;
        self.care = care.checked_shr(taken).unwrap_or(0);
        self.value = value.checked_shr(taken).unwrap_or(0);
        self.len = total - 64;
    }

    /// Appends `n` copies of a care trit, `1` when `one`.
    #[inline]
    pub(crate) fn run<O: BitSink>(&mut self, out: &mut O, one: bool, n: usize) {
        let mut left = n;
        while left > 0 {
            let take = left.min(64);
            let care = low_bits(take);
            self.push(out, care, if one { care } else { 0 }, take);
            left -= take;
        }
    }

    /// Hands every held trit to the sink.
    pub(crate) fn flush<O: BitSink>(&mut self, out: &mut O) {
        if self.len > 0 {
            out.push_word(self.care, self.value, self.len);
        }
        *self = Self::default();
    }
}

/// A mask of the `n <= 64` low bits.
#[inline]
pub(crate) fn low_bits(n: usize) -> u64 {
    u64::MAX.checked_shr((64 - n) as u32).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tritvec_sink_bulk_methods_match_push() {
        let payload: TritVec = "01X01X".parse().unwrap();
        let mut bulk = TritVec::new();
        bulk.push_bit(true);
        bulk.push_run(Trit::Zero, 70);
        BitSink::push_slice(&mut bulk, payload.as_slice());
        // "1X0" as one word pair.
        BitSink::push_word(&mut bulk, 0b101, 0b001, 3);

        let mut scalar = TritVec::new();
        scalar.push_trit(Trit::One);
        for _ in 0..70 {
            scalar.push_trit(Trit::Zero);
        }
        for t in payload.iter().chain([Trit::One, Trit::X, Trit::Zero]) {
            scalar.push_trit(t);
        }
        assert_eq!(bulk, scalar);

        /// A sink with only the required method, so every bulk method
        /// runs its default.
        struct Serial(TritVec);
        impl BitSink for Serial {
            fn push_trit(&mut self, t: Trit) {
                self.0.push(t);
            }
        }
        let mut serial = Serial(TritVec::new());
        serial.push_bit(true);
        serial.push_run(Trit::Zero, 70);
        serial.push_slice(payload.as_slice());
        serial.push_word(0b101, 0b001, 3);
        assert_eq!(serial.0, scalar);
    }

    #[test]
    fn counter_counts_everything() {
        let payload: TritVec = "01X".parse().unwrap();
        let mut n = BitCounter::default();
        n.push_bit(false);
        n.push_run(Trit::X, 5);
        n.push_slice(payload.as_slice());
        n.push_word(0b1, 0b1, 7);
        assert_eq!(n.bits(), 1 + 5 + 3 + 7);
    }
}
