//! Zero-copy subrange views over packed trit streams.
//!
//! [`TritSlice`] borrows the care/value bit-planes of a [`TritVec`] and
//! exposes word-parallel operations
//! (popcount-based counting, mask-based 9C half classification) over an
//! arbitrary symbol subrange — without copying and without per-symbol enum
//! dispatch. [`Chunks`] walks a stream in fixed-size slices so codec
//! consumers never allocate per block.

use crate::trit::{Trit, TritVec};
use crate::words;
use std::fmt;

/// A borrowed, zero-copy view of a subrange of a packed trit stream.
///
/// The view holds the raw `&[u64]` care/value planes plus a bit offset, so
/// subslicing is O(1) and the classification/counting kernels below run in
/// `O(len / 64)` word operations.
///
/// # Plane invariant
///
/// Like [`TritVec`], the value plane is zero wherever the care plane is zero
/// (`X` symbols store `care = 0, value = 0`). The kernels rely on this:
/// a specified one is simply a set value bit, and a specified zero is
/// `care & !value`.
///
/// # Examples
///
/// ```
/// use ninec_testdata::trit::TritVec;
///
/// let tv: TritVec = "0X00X0X011XX".parse()?;
/// let left = tv.slice_view(0, 6); // "0X00X0"
/// assert_eq!(left.count_care_zeros(), 4);
/// assert!(!left.has_care_one());
/// // 9C half classification without touching individual symbols:
/// let (can_zero, can_one) = left.classify_range(0, left.len());
/// assert!(can_zero && !can_one);
/// # Ok::<(), ninec_testdata::trit::ParseTritError>(())
/// ```
#[derive(Clone, Copy)]
pub struct TritSlice<'a> {
    care: &'a [u64],
    value: &'a [u64],
    start: usize,
    len: usize,
}

impl<'a> TritSlice<'a> {
    /// Builds a view from raw packed planes (as exposed by
    /// [`Self::care_words`] / [`Self::value_words`] of another view).
    ///
    /// # Panics
    ///
    /// Panics if the bit range `[start, start + len)` exceeds either plane.
    #[must_use]
    pub fn from_raw(care: &'a [u64], value: &'a [u64], start: usize, len: usize) -> Self {
        assert!(
            start + len <= care.len() * 64 && start + len <= value.len() * 64,
            "trit range {start}+{len} out of range"
        );
        Self {
            care,
            value,
            start,
            len,
        }
    }

    /// Number of symbols in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The symbol at `index` within the view, or `None` past the end.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Trit> {
        if index >= self.len {
            return None;
        }
        let pos = self.start + index;
        Some(
            match (
                words::get_bit(self.care, pos),
                words::get_bit(self.value, pos),
            ) {
                (false, _) => Trit::X,
                (true, false) => Trit::Zero,
                (true, true) => Trit::One,
            },
        )
    }

    /// O(1) subview of the half-open symbol range `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > self.len()`.
    #[must_use]
    pub fn subslice(&self, from: usize, to: usize) -> TritSlice<'a> {
        assert!(
            from <= to && to <= self.len,
            "subslice {from}..{to} out of range {}",
            self.len
        );
        TritSlice {
            care: self.care,
            value: self.value,
            start: self.start + from,
            len: to - from,
        }
    }

    /// Number of specified symbols (word-parallel popcount).
    #[must_use]
    pub fn count_care(&self) -> usize {
        words::count_ones(self.care, self.start, self.len)
    }

    /// Number of don't-cares.
    #[must_use]
    pub fn count_x(&self) -> usize {
        self.len - self.count_care()
    }

    /// Number of specified ones (word-parallel popcount of the value
    /// plane; valid by the plane invariant).
    #[must_use]
    pub fn count_care_ones(&self) -> usize {
        words::count_ones(self.value, self.start, self.len)
    }

    /// Number of specified zeros (word-parallel `care & !value` popcount).
    #[must_use]
    pub fn count_care_zeros(&self) -> usize {
        words::count_and_not(self.care, self.value, self.start, self.len)
    }

    /// `true` if the view contains at least one specified one.
    #[must_use]
    pub fn has_care_one(&self) -> bool {
        words::any_set(self.value, self.start, self.len)
    }

    /// `true` if the view contains at least one specified zero.
    #[must_use]
    pub fn has_care_zero(&self) -> bool {
        words::any_and_not(self.care, self.value, self.start, self.len)
    }

    /// 9C half classification of the symbol range `[from, to)` in
    /// `O(len / 64)` word operations: returns `(can_zero, can_one)`, i.e.
    /// whether every symbol is compatible with all-zeros / with all-ones.
    ///
    /// An empty range is compatible with both. `(false, false)` is the
    /// paper's *mismatch* half.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > self.len()`.
    #[must_use]
    pub fn classify_range(&self, from: usize, to: usize) -> (bool, bool) {
        assert!(
            from <= to && to <= self.len,
            "classify {from}..{to} out of range {}",
            self.len
        );
        let (start, len) = (self.start + from, to - from);
        let can_zero = !words::any_set(self.value, start, len);
        let can_one = !words::any_and_not(self.care, self.value, start, len);
        (can_zero, can_one)
    }

    /// Extracts up to 64 bits of the care plane starting at symbol `from`,
    /// LSB-first. Symbols past the end read as 0 (don't-care).
    #[must_use]
    pub fn care_word(&self, from: usize, n: usize) -> u64 {
        debug_assert!(from <= self.len);
        words::extract_word(self.care, self.start + from, n.min(64))
    }

    /// Extracts up to 64 bits of the value plane starting at symbol `from`,
    /// LSB-first. Symbols past the end read as 0.
    #[must_use]
    pub fn value_word(&self, from: usize, n: usize) -> u64 {
        debug_assert!(from <= self.len);
        words::extract_word(self.value, self.start + from, n.min(64))
    }

    /// Copies the view into an owned [`TritVec`].
    #[must_use]
    pub fn to_tritvec(&self) -> TritVec {
        let mut out = TritVec::with_capacity(self.len);
        out.extend_from_slice(*self);
        out
    }

    /// Iterates over the symbols in order.
    pub fn iter(&self) -> SliceIter<'a> {
        SliceIter {
            slice: *self,
            index: 0,
        }
    }

    /// The raw care plane words backing this view (bit offset
    /// [`Self::bit_start`] applies).
    #[must_use]
    pub fn care_words(&self) -> &'a [u64] {
        self.care
    }

    /// The raw value plane words backing this view (bit offset
    /// [`Self::bit_start`] applies).
    #[must_use]
    pub fn value_words(&self) -> &'a [u64] {
        self.value
    }

    /// Bit offset of the view's first symbol within the raw planes.
    #[must_use]
    pub fn bit_start(&self) -> usize {
        self.start
    }
}

impl fmt::Display for TritSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.iter() {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for TritSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TritSlice(\"{self}\")")
    }
}

impl<'a> IntoIterator for TritSlice<'a> {
    type Item = Trit;
    type IntoIter = SliceIter<'a>;

    fn into_iter(self) -> SliceIter<'a> {
        SliceIter {
            slice: self,
            index: 0,
        }
    }
}

/// Iterator over the symbols of a [`TritSlice`].
#[derive(Debug, Clone)]
pub struct SliceIter<'a> {
    slice: TritSlice<'a>,
    index: usize,
}

impl Iterator for SliceIter<'_> {
    type Item = Trit;

    fn next(&mut self) -> Option<Trit> {
        let t = self.slice.get(self.index)?;
        self.index += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.slice.len() - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for SliceIter<'_> {}

/// Iterator over fixed-size chunks of a trit stream, yielding zero-copy
/// [`TritSlice`] views; the final chunk may be shorter.
///
/// This is the allocation-free block cursor the streaming 9C codec walks.
///
/// # Examples
///
/// ```
/// use ninec_testdata::trit::TritVec;
///
/// let tv: TritVec = "01X10XX1X".parse()?;
/// let sizes: Vec<usize> = tv.chunks(4).map(|c| c.len()).collect();
/// assert_eq!(sizes, [4, 4, 1]);
/// assert_eq!(tv.chunks(4).nth(1).unwrap().to_string(), "0XX1");
/// # Ok::<(), ninec_testdata::trit::ParseTritError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Chunks<'a> {
    slice: TritSlice<'a>,
    pos: usize,
    chunk: usize,
}

impl<'a> Chunks<'a> {
    /// Builds a cursor over `slice` with `chunk`-symbol steps.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    #[must_use]
    pub fn new(slice: TritSlice<'a>, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        Self {
            slice,
            pos: 0,
            chunk,
        }
    }
}

impl<'a> Iterator for Chunks<'a> {
    type Item = TritSlice<'a>;

    fn next(&mut self) -> Option<TritSlice<'a>> {
        if self.pos >= self.slice.len() {
            return None;
        }
        let end = (self.pos + self.chunk).min(self.slice.len());
        let out = self.slice.subslice(self.pos, end);
        self.pos = end;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.slice.len() - self.pos).div_ceil(self.chunk);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Chunks<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trit::Trit;

    fn tv(s: &str) -> TritVec {
        s.parse().unwrap()
    }

    #[test]
    fn view_matches_copying_slice() {
        let stream = tv("01X10XX101XX01X1");
        for start in 0..stream.len() {
            for end in start..=stream.len() {
                let view = stream.slice_view(start, end);
                let copy = stream.slice(start, end);
                assert_eq!(view.len(), copy.len());
                assert_eq!(view.to_string(), copy.to_string(), "{start}..{end}");
                assert_eq!(view.to_tritvec(), copy);
            }
        }
    }

    #[test]
    fn counting_kernels_match_scalar() {
        // Long enough to cross several word boundaries.
        let pattern: String = "01X10XX10XXX01X1".repeat(12);
        let stream = tv(&pattern);
        for &(start, end) in &[(0usize, 192usize), (1, 64), (63, 66), (100, 100), (5, 191)] {
            let view = stream.slice_view(start, end);
            let scalar: Vec<Trit> = view.iter().collect();
            assert_eq!(
                view.count_care_zeros(),
                scalar.iter().filter(|&&t| t == Trit::Zero).count()
            );
            assert_eq!(
                view.count_care_ones(),
                scalar.iter().filter(|&&t| t == Trit::One).count()
            );
            assert_eq!(view.count_x(), scalar.iter().filter(|&&t| t.is_x()).count());
            assert_eq!(view.has_care_zero(), scalar.contains(&Trit::Zero));
            assert_eq!(view.has_care_one(), scalar.contains(&Trit::One));
        }
    }

    #[test]
    fn classify_range_all_nine_shapes() {
        let cases = [
            ("0X0X", (true, false)),  // zero-compatible only
            ("1X11", (false, true)),  // one-compatible only
            ("XXXX", (true, true)),   // both
            ("", (true, true)),       // empty is both
            ("01XX", (false, false)), // mismatch
        ];
        for (s, expected) in cases {
            let stream = tv(s);
            let view = stream.as_slice();
            assert_eq!(view.classify_range(0, view.len()), expected, "{s:?}");
        }
        // Subranges classify independently.
        let stream = tv("0X0X1X11");
        let view = stream.as_slice();
        assert_eq!(view.classify_range(0, 4), (true, false));
        assert_eq!(view.classify_range(4, 8), (false, true));
        assert_eq!(view.classify_range(0, 8), (false, false));
        assert_eq!(view.classify_range(3, 5), (false, true)); // "X1"
    }

    #[test]
    fn subslice_composes() {
        let stream = tv("01X10XX101XX");
        let outer = stream.slice_view(2, 10); // "X10XX101"
        let inner = outer.subslice(1, 5); // "10XX"
        assert_eq!(inner.to_string(), "10XX");
        assert_eq!(inner.subslice(0, 0).len(), 0);
    }

    #[test]
    fn plane_word_extraction() {
        let stream = tv("01X1");
        let view = stream.as_slice();
        // care: 1101 (LSB-first: bit0=1,bit1=1,bit2=0,bit3=1) -> 0b1011
        assert_eq!(view.care_word(0, 4), 0b1011);
        // value: 0101 -> bit1=1, bit3=1 -> 0b1010
        assert_eq!(view.value_word(0, 4), 0b1010);
        // Reads past the end are don't-care.
        assert_eq!(view.care_word(0, 64), 0b1011);
    }

    #[test]
    fn chunk_cursor_covers_stream_exactly() {
        let pattern: String = "01X10".repeat(30); // 150 symbols
        let stream = tv(&pattern);
        for chunk in [1usize, 7, 64, 150, 1000] {
            let mut reassembled = TritVec::new();
            let mut count = 0usize;
            for piece in stream.chunks(chunk) {
                assert!(piece.len() <= chunk);
                reassembled.extend_from_slice(piece);
                count += 1;
            }
            assert_eq!(reassembled, stream, "chunk {chunk}");
            assert_eq!(count, stream.len().div_ceil(chunk));
            assert_eq!(stream.chunks(chunk).len(), count);
        }
        assert_eq!(TritVec::new().chunks(8).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subslice_out_of_range_panics() {
        let stream = tv("01X1");
        let _ = stream.as_slice().subslice(2, 9);
    }
}
