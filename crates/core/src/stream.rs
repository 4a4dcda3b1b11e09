//! The sink abstraction of the streaming 9C codec.
//!
//! The streaming encoder ([`crate::encode::StreamEncoder`]) and the
//! streaming decoder ([`crate::decode::StreamDecoder`]) both write their
//! output through a [`BitSink`], so neither forces its output into
//! memory: an encoder holds at most one partial block (`< K` symbols)
//! and a decoder at most one word of decoded trits. The decoder reads
//! its input from a packed [`TritSlice`], a word at a time.
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

        let mut scalar = TritVec::new();
        scalar.push_trit(Trit::One);
        for _ in 0..70 {
            scalar.push_trit(Trit::Zero);
        }
        for t in payload.iter() {
            scalar.push_trit(t);
        }
        assert_eq!(bulk, scalar);
    }

    #[test]
    fn counter_counts_everything() {
        let payload: TritVec = "01X".parse().unwrap();
        let mut n = BitCounter::default();
        n.push_bit(false);
        n.push_run(Trit::X, 5);
        n.push_slice(payload.as_slice());
        assert_eq!(n.bits(), 1 + 5 + 3);
    }
}
