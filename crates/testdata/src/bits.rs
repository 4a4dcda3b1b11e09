//! Packed bit vectors and bit-granular readers/writers.
//!
//! Every compression code in this workspace produces or consumes streams at
//! bit granularity; [`BitVec`], [`BitWriter`] and [`BitReader`] are the
//! shared substrate for that.

use std::fmt;

/// A growable, packed vector of bits.
///
/// Bits are stored LSB-first inside `u64` words; index 0 is the first bit
/// pushed. The type is deliberately minimal — exactly the operations the
/// codecs need — rather than a general `Vec<bool>` replacement.
///
/// # Examples
///
/// ```
/// use ninec_testdata::bits::BitVec;
///
/// let mut bv = BitVec::new();
/// bv.push(true);
/// bv.push(false);
/// bv.push(true);
/// assert_eq!(bv.len(), 3);
/// assert_eq!(bv.get(0), Some(true));
/// assert_eq!(bv.to_string(), "101");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `bits` bits.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bit vector of `len` copies of `bit`.
    #[must_use]
    pub fn repeat(bit: bool, len: usize) -> Self {
        let word = if bit { u64::MAX } else { 0 };
        let mut v = Self {
            words: vec![word; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Parses a bit vector from a string of `'0'` and `'1'` characters.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBitsError`] if any character is not `'0'` or `'1'`.
    pub fn from_str_radix2(s: &str) -> Result<Self, ParseBitsError> {
        let mut v = Self::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => v.push(false),
                '1' => v.push(true),
                other => {
                    return Err(ParseBitsError {
                        position: i,
                        found: other,
                    })
                }
            }
        }
        Ok(v)
    }

    /// Number of bits stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bits are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed backing words, LSB-first; bit `i` of the vector is
    /// `words()[i / 64] >> (i % 64) & 1`. Bits at positions `>= len()` in
    /// the last word are zero.
    ///
    /// This is the zero-copy entry point for the word-parallel kernels in
    /// [`crate::words`].
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed backing words, mutably, for writers that fill bits in
    /// place. The caller leaves every bit at a position `>= len()` zero:
    /// the derived `Eq` and `Hash` read whole words.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Appends `n` zero bits in one zero-filled grow of the backing words.
    /// An empty vector without capacity takes its words zeroed from the
    /// allocator, which can skip writing pages that are fresh.
    pub(crate) fn grow_zeroed(&mut self, n: usize) {
        self.len += n;
        let words = self.len.div_ceil(64);
        if self.words.capacity() == 0 {
            self.words = vec![0; words];
        } else {
            self.words.resize(words, 0);
        }
    }

    /// Reserves room for at least `additional` more bits.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.len + additional).div_ceil(64);
        self.words.reserve(needed.saturating_sub(self.words.len()));
    }

    /// Shortens the vector to `len` bits; no-op if already shorter.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        self.words.truncate(len.div_ceil(64));
        self.mask_tail();
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if b == 0 {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    /// Returns the bit at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some(self.words[index / 64] >> (index % 64) & 1 == 1)
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let (w, b) = (index / 64, index % 64);
        if bit {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Appends the `n` low bits of `value`, LSB first — in O(1) word
    /// operations, not per-bit.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn push_bits_lsb(&mut self, value: u64, n: usize) {
        assert!(n <= 64, "cannot push more than 64 bits at once");
        if n == 0 {
            return;
        }
        let value = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        let off = self.len % 64;
        if off == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("off != 0 implies a word") |= value << off;
            if off + n > 64 {
                self.words.push(value >> (64 - off));
            }
        }
        self.len += n;
    }

    /// Appends `n` copies of `bit` in O(n / 64) word operations.
    pub fn push_repeat(&mut self, bit: bool, n: usize) {
        let word = if bit { u64::MAX } else { 0 };
        let mut remaining = n;
        self.reserve(n);
        while remaining > 0 {
            let take = remaining.min(64);
            self.push_bits_lsb(word, take);
            remaining -= take;
        }
    }

    /// Appends the bit range `[start, start + len)` of a packed word slice
    /// (as exposed by [`BitVec::words`]) in O(len / 64) word operations.
    pub fn extend_from_words(&mut self, words: &[u64], start: usize, len: usize) {
        assert!(
            start + len <= words.len() * 64,
            "bit range {start}+{len} out of range for {} words",
            words.len()
        );
        self.reserve(len);
        let mut pos = start;
        let end = start + len;
        while pos < end {
            let take = (end - pos).min(64);
            self.push_bits_lsb(crate::words::extract_word(words, pos, take), take);
            pos += take;
        }
    }

    /// Appends the `n` low bits of `value`, MSB of those `n` bits first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn push_bits_msb(&mut self, value: u64, n: usize) {
        assert!(n <= 64, "cannot push more than 64 bits at once");
        for i in (0..n).rev() {
            self.push(value >> i & 1 == 1);
        }
    }

    /// Appends all bits of `other` in O(len / 64) word operations.
    pub fn extend_from_bitvec(&mut self, other: &BitVec) {
        self.extend_from_words(&other.words, 0, other.len);
    }

    /// Number of 1-bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of 0-bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bits: self,
            index: 0,
        }
    }

    /// Number of positions where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal lengths"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.iter() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(\"{self}\")")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut v = BitVec::with_capacity(iter.size_hint().0);
        for bit in iter {
            v.push(bit);
        }
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        for bit in iter {
            self.push(bit);
        }
    }
}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the bits of a [`BitVec`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bits: &'a BitVec,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.bits.get(self.index)?;
        self.index += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.bits.len() - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Error returned when parsing a [`BitVec`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitsError {
    /// Byte offset of the offending character.
    pub position: usize,
    /// The character that was not `'0'` or `'1'`.
    pub found: char,
}

impl fmt::Display for ParseBitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid bit character {:?} at position {}",
            self.found, self.position
        )
    }
}

impl std::error::Error for ParseBitsError {}

/// Incremental writer producing a [`BitVec`].
///
/// Exists mostly for symmetry with [`BitReader`]; encoders that build a
/// stream front-to-back can use it directly.
///
/// # Examples
///
/// ```
/// use ninec_testdata::bits::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits_msb(0b101, 3);
/// let bv = w.finish();
/// assert_eq!(bv.to_string(), "1101");
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    out: BitVec,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.out.push(bit);
    }

    /// Appends the `n` low bits of `value`, MSB first.
    pub fn write_bits_msb(&mut self, value: u64, n: usize) {
        self.out.push_bits_msb(value, n);
    }

    /// Appends a whole bit vector.
    pub fn write_bitvec(&mut self, bits: &BitVec) {
        self.out.extend_from_bitvec(bits);
    }

    /// Bits written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Consumes the writer, returning the accumulated bits.
    pub fn finish(self) -> BitVec {
        self.out
    }
}

/// Cursor reading a [`BitVec`] front-to-back.
///
/// # Examples
///
/// ```
/// use ninec_testdata::bits::{BitReader, BitVec};
///
/// let bv = BitVec::from_str_radix2("1101")?;
/// let mut r = BitReader::new(&bv);
/// assert_eq!(r.read_bit(), Some(true));
/// assert_eq!(r.read_bits_msb(3), Some(0b101));
/// assert!(r.is_at_end());
/// # Ok::<(), ninec_testdata::bits::ParseBitsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit.
    pub fn new(bits: &'a BitVec) -> Self {
        Self { bits, pos: 0 }
    }

    /// Reads one bit, or `None` at end of stream.
    pub fn read_bit(&mut self) -> Option<bool> {
        let bit = self.bits.get(self.pos)?;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits MSB-first into the low bits of a `u64`.
    ///
    /// Returns `None` (consuming nothing) if fewer than `n` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn read_bits_msb(&mut self, n: usize) -> Option<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if self.remaining() < n {
            return None;
        }
        let mut value = 0u64;
        for _ in 0..n {
            value = value << 1 | self.read_bit().expect("length checked") as u64;
        }
        Some(value)
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits left to read.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// `true` once every bit has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut bv = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), Some(b), "bit {i}");
        }
        assert_eq!(bv.get(200), None);
    }

    #[test]
    fn set_overwrites() {
        let mut bv = BitVec::repeat(false, 130);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert_eq!(bv.count_ones(), 3);
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut bv = BitVec::repeat(false, 3);
        bv.set(3, true);
    }

    #[test]
    fn repeat_masks_tail() {
        let bv = BitVec::repeat(true, 70);
        assert_eq!(bv.count_ones(), 70);
        assert_eq!(bv.len(), 70);
    }

    #[test]
    fn parse_and_display() {
        let bv = BitVec::from_str_radix2("0110010").unwrap();
        assert_eq!(bv.to_string(), "0110010");
        let err = BitVec::from_str_radix2("01x").unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.found, 'x');
    }

    #[test]
    fn push_bits_orderings() {
        let mut lsb = BitVec::new();
        lsb.push_bits_lsb(0b110, 3); // pushes 0,1,1
        assert_eq!(lsb.to_string(), "011");
        let mut msb = BitVec::new();
        msb.push_bits_msb(0b110, 3); // pushes 1,1,0
        assert_eq!(msb.to_string(), "110");
    }

    #[test]
    fn reader_msb_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits_msb(0xDEAD, 16);
        w.write_bits_msb(0b1, 1);
        let bv = w.finish();
        let mut r = BitReader::new(&bv);
        assert_eq!(r.read_bits_msb(16), Some(0xDEAD));
        assert_eq!(r.read_bits_msb(1), Some(1));
        assert_eq!(r.read_bits_msb(1), None);
        assert!(r.is_at_end());
    }

    #[test]
    fn reader_refuses_partial_read() {
        let bv = BitVec::from_str_radix2("101").unwrap();
        let mut r = BitReader::new(&bv);
        assert_eq!(r.read_bits_msb(4), None);
        assert_eq!(r.position(), 0, "failed read must not consume");
        assert_eq!(r.read_bits_msb(3), Some(0b101));
    }

    #[test]
    fn hamming() {
        let a = BitVec::from_str_radix2("10110").unwrap();
        let b = BitVec::from_str_radix2("10011").unwrap();
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn push_bits_lsb_word_level_matches_bitwise() {
        // Cross word boundaries at every alignment.
        for prefix in 0..67usize {
            let mut word_level = BitVec::new();
            let mut bitwise = BitVec::new();
            for i in 0..prefix {
                word_level.push(i % 3 == 0);
                bitwise.push(i % 3 == 0);
            }
            for &(v, n) in &[
                (0xDEAD_BEEF_u64, 32usize),
                (0b101, 3),
                (u64::MAX, 64),
                (0, 0),
                (1, 1),
            ] {
                word_level.push_bits_lsb(v, n);
                for i in 0..n {
                    bitwise.push(v >> i & 1 == 1);
                }
            }
            assert_eq!(word_level, bitwise, "prefix {prefix}");
        }
    }

    #[test]
    fn push_repeat_runs() {
        let mut bv = BitVec::new();
        bv.push(true);
        bv.push_repeat(false, 70);
        bv.push_repeat(true, 130);
        assert_eq!(bv.len(), 201);
        assert_eq!(bv.count_ones(), 131);
        assert_eq!(bv.get(0), Some(true));
        assert_eq!(bv.get(70), Some(false));
        assert_eq!(bv.get(71), Some(true));
    }

    #[test]
    fn extend_from_bitvec_unaligned() {
        for prefix_len in [0usize, 1, 63, 64, 65] {
            let mut dst = BitVec::repeat(true, prefix_len);
            let src: BitVec = (0..150).map(|i| i % 7 < 3).collect();
            dst.extend_from_bitvec(&src);
            assert_eq!(dst.len(), prefix_len + 150);
            for i in 0..150 {
                assert_eq!(
                    dst.get(prefix_len + i),
                    src.get(i),
                    "prefix {prefix_len} bit {i}"
                );
            }
        }
    }

    #[test]
    fn extend_from_words_subrange() {
        let src: BitVec = (0..200).map(|i| i % 5 == 0).collect();
        let mut dst = BitVec::new();
        dst.push(true);
        dst.extend_from_words(src.words(), 3, 130);
        assert_eq!(dst.len(), 131);
        for i in 0..130 {
            assert_eq!(dst.get(1 + i), src.get(3 + i), "bit {i}");
        }
    }

    #[test]
    fn grow_zeroed_appends_zero_bits_and_words_mut_writes_them() {
        let mut bv = BitVec::repeat(true, 70);
        bv.grow_zeroed(100);
        assert_eq!(bv.len(), 170);
        assert_eq!(bv.words().len(), 3);
        assert_eq!(bv.count_ones(), 70);
        bv.words_mut()[2] |= 1 << 41;
        assert_eq!(bv.get(169), Some(true));
        let mut expect = BitVec::repeat(true, 70);
        expect.push_repeat(false, 99);
        expect.push(true);
        assert_eq!(bv, expect);
    }

    #[test]
    fn truncate_masks_tail() {
        let mut bv = BitVec::repeat(true, 130);
        bv.truncate(65);
        assert_eq!(bv.len(), 65);
        assert_eq!(bv.count_ones(), 65);
        // Pushing after truncation must not resurrect stale bits.
        bv.push(false);
        assert_eq!(bv.get(65), Some(false));
        assert_eq!(bv.count_ones(), 65);
        bv.truncate(200); // no-op
        assert_eq!(bv.len(), 66);
    }

    #[test]
    fn words_expose_packed_planes() {
        let mut bv = BitVec::new();
        bv.push_bits_lsb(0b1011, 4);
        assert_eq!(bv.words(), &[0b1011]);
        let full = BitVec::repeat(true, 64);
        assert_eq!(full.words(), &[u64::MAX]);
    }

    #[test]
    fn from_iter_collect() {
        let bv: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(bv.to_string(), "101");
        let round: Vec<bool> = bv.iter().collect();
        assert_eq!(round, vec![true, false, true]);
    }
}
