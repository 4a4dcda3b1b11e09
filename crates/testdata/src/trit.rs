//! Three-valued test-data symbols: `0`, `1` and `X` (don't-care).
//!
//! Precomputed scan test sets are streams over {0, 1, X}; [`Trit`] is one
//! symbol and [`TritVec`] a packed vector of them (two bit-planes: a *care*
//! plane and a *value* plane, so a symbol costs 2 bits of storage).

use crate::bits::BitVec;
use crate::slice::{Chunks, TritSlice};
use std::fmt;

/// One test-data symbol: a care bit (`Zero`/`One`) or a don't-care (`X`).
///
/// # Examples
///
/// ```
/// use ninec_testdata::trit::Trit;
///
/// assert!(Trit::X.is_x());
/// assert!(Trit::Zero.compatible_with(Trit::X));
/// assert!(!Trit::Zero.compatible_with(Trit::One));
/// assert_eq!(Trit::try_from('1')?, Trit::One);
/// # Ok::<(), ninec_testdata::trit::ParseTritError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Trit {
    /// A specified 0.
    Zero,
    /// A specified 1.
    One,
    /// A don't-care: the tester may apply either value.
    X,
}

impl Trit {
    /// `true` for [`Trit::X`].
    pub fn is_x(self) -> bool {
        self == Trit::X
    }

    /// `true` for a specified (care) symbol.
    pub fn is_care(self) -> bool {
        self != Trit::X
    }

    /// Whether this symbol can coexist with `other` at the same position
    /// (equal, or at least one of the two is `X`).
    pub fn compatible_with(self, other: Trit) -> bool {
        self == other || self.is_x() || other.is_x()
    }

    /// The boolean value of a care symbol, or `None` for `X`.
    pub fn value(self) -> Option<bool> {
        match self {
            Trit::Zero => Some(false),
            Trit::One => Some(true),
            Trit::X => None,
        }
    }

    /// The symbol's character form: `'0'`, `'1'` or `'X'`.
    pub fn to_char(self) -> char {
        match self {
            Trit::Zero => '0',
            Trit::One => '1',
            Trit::X => 'X',
        }
    }
}

impl From<bool> for Trit {
    fn from(bit: bool) -> Self {
        if bit {
            Trit::One
        } else {
            Trit::Zero
        }
    }
}

impl TryFrom<char> for Trit {
    type Error = ParseTritError;

    fn try_from(c: char) -> Result<Self, ParseTritError> {
        match c {
            '0' => Ok(Trit::Zero),
            '1' => Ok(Trit::One),
            'x' | 'X' | '-' => Ok(Trit::X),
            other => Err(ParseTritError { found: other }),
        }
    }
}

impl fmt::Display for Trit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Error returned when a character is not a valid trit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTritError {
    /// The offending character.
    pub found: char,
}

impl fmt::Display for ParseTritError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid trit character {:?} (expected 0, 1, X or -)",
            self.found
        )
    }
}

impl std::error::Error for ParseTritError {}

/// A packed, growable vector of [`Trit`]s.
///
/// Storage is two [`BitVec`] planes: `care` (1 = specified) and `value`
/// (meaningful only where `care` is set). This keeps multi-megabit test
/// sets compact and makes X-counting a popcount.
///
/// # Plane invariant
///
/// Every constructor and mutator maintains `value ⊆ care`: the value plane
/// is zero wherever the care plane is zero (`X` stores `care = 0,
/// value = 0`). The word-parallel kernels in [`crate::slice`] and
/// [`crate::words`] rely on this — a specified one is a set value bit, a
/// specified zero is `care & !value`.
///
/// # Examples
///
/// ```
/// use ninec_testdata::trit::{Trit, TritVec};
///
/// let tv: TritVec = "01X1".parse()?;
/// assert_eq!(tv.len(), 4);
/// assert_eq!(tv.get(2), Some(Trit::X));
/// assert_eq!(tv.count_x(), 1);
/// assert_eq!(tv.to_string(), "01X1");
/// # Ok::<(), ninec_testdata::trit::ParseTritError>(())
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct TritVec {
    care: BitVec,
    value: BitVec,
}

impl TritVec {
    /// Creates an empty vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty vector with room for `n` symbols.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            care: BitVec::with_capacity(n),
            value: BitVec::with_capacity(n),
        }
    }

    /// Creates a vector of `len` copies of `t`.
    #[must_use]
    pub fn repeat(t: Trit, len: usize) -> Self {
        Self {
            care: BitVec::repeat(t.is_care(), len),
            value: BitVec::repeat(t == Trit::One, len),
        }
    }

    /// Number of symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.care.len()
    }

    /// `true` when no symbols are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.care.is_empty()
    }

    /// Reserves room for at least `n` more symbols.
    pub fn reserve(&mut self, n: usize) {
        self.care.reserve(n);
        self.value.reserve(n);
    }

    /// Shortens the vector to `len` symbols; no-op if already shorter.
    pub fn truncate(&mut self, len: usize) {
        self.care.truncate(len);
        self.value.truncate(len);
    }

    /// Appends one symbol.
    pub fn push(&mut self, t: Trit) {
        self.care.push(t.is_care());
        self.value.push(t == Trit::One);
    }

    /// Returns the symbol at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<Trit> {
        let care = self.care.get(index)?;
        let value = self.value.get(index).expect("planes stay in sync");
        Some(match (care, value) {
            (false, _) => Trit::X,
            (true, false) => Trit::Zero,
            (true, true) => Trit::One,
        })
    }

    /// Overwrites the symbol at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, t: Trit) {
        self.care.set(index, t.is_care());
        self.value.set(index, t == Trit::One);
    }

    /// Appends all symbols of `other` in O(len / 64) word operations.
    pub fn extend_from_tritvec(&mut self, other: &TritVec) {
        self.care.extend_from_bitvec(&other.care);
        self.value.extend_from_bitvec(&other.value);
    }

    /// Appends all symbols of a zero-copy [`TritSlice`] view in
    /// O(len / 64) word operations.
    pub fn extend_from_slice(&mut self, slice: TritSlice<'_>) {
        self.care
            .extend_from_words(slice.care_words(), slice.bit_start(), slice.len());
        self.value
            .extend_from_words(slice.value_words(), slice.bit_start(), slice.len());
    }

    /// Appends `n` `X` symbols in one zero-filled grow of both planes: the
    /// room an in-place writer then fills through
    /// [`planes_mut`](Self::planes_mut).
    pub fn grow_x(&mut self, n: usize) {
        self.care.grow_zeroed(n);
        self.value.grow_zeroed(n);
    }

    /// The packed words of the care and value planes, mutably, for
    /// writers that fill symbols in place. The caller keeps the plane
    /// invariant (`value ⊆ care`) and leaves every bit at a position
    /// `>= len()` zero: the derived `Eq` and `Hash` read whole words.
    pub fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        (self.care.words_mut(), self.value.words_mut())
    }

    /// Appends the `n <= 64` low symbols of one care/value word pair, in
    /// O(1) word operations. The pair must keep the plane invariant
    /// (`value ⊆ care`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn push_words(&mut self, care: u64, value: u64, n: usize) {
        self.care.push_bits_lsb(care, n);
        self.value.push_bits_lsb(value, n);
    }

    /// Appends `n` copies of `t` in O(n / 64) word operations.
    pub fn push_run(&mut self, t: Trit, n: usize) {
        self.care.push_repeat(t.is_care(), n);
        self.value.push_repeat(t == Trit::One, n);
    }

    /// Number of don't-care symbols.
    #[must_use]
    pub fn count_x(&self) -> usize {
        self.care.count_zeros()
    }

    /// Number of specified symbols.
    #[must_use]
    pub fn count_care(&self) -> usize {
        self.care.count_ones()
    }

    /// Number of specified zeros (word-parallel `care & !value` popcount).
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        crate::words::count_and_not(self.care.words(), self.value.words(), 0, self.len())
    }

    /// Number of specified ones (word-parallel popcount of the value
    /// plane; valid by the plane invariant).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.value.count_ones()
    }

    /// Fraction of symbols that are `X`, in `[0, 1]`; 0 for an empty vector.
    pub fn x_density(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.count_x() as f64 / self.len() as f64
        }
    }

    /// Iterates over the symbols in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            trits: self,
            index: 0,
            back: self.len(),
        }
    }

    /// Copies the half-open range `[start, end)` into a new vector in
    /// O(len / 64) word operations.
    ///
    /// Prefer [`TritVec::slice_view`] when a borrowed, zero-copy view
    /// suffices.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    #[must_use]
    pub fn slice(&self, start: usize, end: usize) -> TritVec {
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of range"
        );
        self.slice_view(start, end).to_tritvec()
    }

    /// Zero-copy view of the half-open range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    #[must_use]
    pub fn slice_view(&self, start: usize, end: usize) -> TritSlice<'_> {
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of range"
        );
        TritSlice::from_raw(self.care.words(), self.value.words(), start, end - start)
    }

    /// Zero-copy view of the whole vector.
    #[must_use]
    pub fn as_slice(&self) -> TritSlice<'_> {
        TritSlice::from_raw(self.care.words(), self.value.words(), 0, self.len())
    }

    /// Walks the vector in `chunk`-symbol zero-copy slices (the last chunk
    /// may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn chunks(&self, chunk: usize) -> Chunks<'_> {
        Chunks::new(self.as_slice(), chunk)
    }

    /// `true` if every symbol of `self` is [compatible] with the symbol of
    /// `other` at the same position.
    ///
    /// [compatible]: Trit::compatible_with
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn compatible_with(&self, other: &TritVec) -> bool {
        assert_eq!(
            self.len(),
            other.len(),
            "compatibility requires equal lengths"
        );
        self.iter()
            .zip(other.iter())
            .all(|(a, b)| a.compatible_with(b))
    }

    /// `true` if `self` *covers* `other`: wherever `other` has a care bit,
    /// `self` has the same care bit.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn covers(&self, other: &TritVec) -> bool {
        assert_eq!(self.len(), other.len(), "covering requires equal lengths");
        self.iter()
            .zip(other.iter())
            .all(|(a, b)| b.is_x() || a == b)
    }

    /// Converts a fully specified vector to a [`BitVec`].
    ///
    /// Returns `None` if any symbol is `X`.
    pub fn to_bitvec(&self) -> Option<BitVec> {
        if self.count_x() != 0 {
            return None;
        }
        Some(self.value_plane_masked())
    }

    /// The care plane: 1 where the symbol is specified.
    pub fn care_plane(&self) -> &BitVec {
        &self.care
    }

    fn value_plane_masked(&self) -> BitVec {
        self.iter().map(|t| t == Trit::One).collect()
    }
}

impl fmt::Display for TritVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.iter() {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for TritVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TritVec(\"{self}\")")
    }
}

impl std::str::FromStr for TritVec {
    type Err = ParseTritError;

    fn from_str(s: &str) -> Result<Self, ParseTritError> {
        let mut v = TritVec::with_capacity(s.len());
        for c in s.chars() {
            v.push(Trit::try_from(c)?);
        }
        Ok(v)
    }
}

impl FromIterator<Trit> for TritVec {
    fn from_iter<I: IntoIterator<Item = Trit>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut v = TritVec::with_capacity(iter.size_hint().0);
        for t in iter {
            v.push(t);
        }
        v
    }
}

impl Extend<Trit> for TritVec {
    fn extend<I: IntoIterator<Item = Trit>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        for t in iter {
            self.push(t);
        }
    }
}

impl From<&BitVec> for TritVec {
    fn from(bits: &BitVec) -> Self {
        bits.iter().map(Trit::from).collect()
    }
}

impl<'a> IntoIterator for &'a TritVec {
    type Item = Trit;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the symbols of a [`TritVec`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    trits: &'a TritVec,
    index: usize,
    back: usize,
}

impl Iterator for Iter<'_> {
    type Item = Trit;

    fn next(&mut self) -> Option<Trit> {
        if self.index >= self.back {
            return None;
        }
        let t = self.trits.get(self.index)?;
        self.index += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.back - self.index;
        (rem, Some(rem))
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Trit> {
        if self.index >= self.back {
            return None;
        }
        self.back -= 1;
        self.trits.get(self.back)
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        let s = "01X10XX1";
        let tv: TritVec = s.parse().unwrap();
        assert_eq!(tv.to_string(), s);
        assert_eq!(tv.len(), 8);
        assert_eq!(tv.count_x(), 3);
        assert_eq!(tv.count_zeros(), 2);
        assert_eq!(tv.count_ones(), 3);
    }

    #[test]
    fn accepts_dash_and_lowercase_x() {
        let tv: TritVec = "0-x".parse().unwrap();
        assert_eq!(tv.to_string(), "0XX");
    }

    #[test]
    fn rejects_garbage() {
        let err = "012".parse::<TritVec>().unwrap_err();
        assert_eq!(err.found, '2');
    }

    #[test]
    fn set_get() {
        let mut tv = TritVec::repeat(Trit::X, 5);
        tv.set(1, Trit::One);
        tv.set(3, Trit::Zero);
        assert_eq!(tv.to_string(), "X1X0X");
        tv.set(1, Trit::X);
        assert_eq!(tv.count_x(), 4);
    }

    #[test]
    fn compatibility_and_covering() {
        let cube: TritVec = "0XX1".parse().unwrap();
        let filled: TritVec = "0101".parse().unwrap();
        assert!(filled.compatible_with(&cube));
        assert!(filled.covers(&cube));
        assert!(!cube.covers(&filled));
        let bad: TritVec = "1101".parse().unwrap();
        assert!(!bad.compatible_with(&cube));
        assert!(!bad.covers(&cube));
    }

    #[test]
    fn to_bitvec_only_when_fully_specified() {
        let tv: TritVec = "0X1".parse().unwrap();
        assert_eq!(tv.to_bitvec(), None);
        let tv: TritVec = "011".parse().unwrap();
        assert_eq!(tv.to_bitvec().unwrap().to_string(), "011");
    }

    #[test]
    fn slice_ranges() {
        let tv: TritVec = "01X10".parse().unwrap();
        assert_eq!(tv.slice(1, 4).to_string(), "1X1");
        assert_eq!(tv.slice(0, 0).len(), 0);
        assert_eq!(tv.slice(5, 5).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let tv: TritVec = "01".parse().unwrap();
        let _ = tv.slice(1, 3);
    }

    #[test]
    fn grow_x_then_planes_mut_writes_in_place() {
        let mut tv: TritVec = "01".parse().unwrap();
        tv.grow_x(65);
        assert_eq!(tv.len(), 67);
        assert_eq!(tv.count_x(), 65);
        let (care, value) = tv.planes_mut();
        // Trit 66 becomes a one, trit 2 a zero.
        care[1] |= 1 << 2;
        value[1] |= 1 << 2;
        care[0] |= 1 << 2;
        let want: TritVec = format!("010{}1", "X".repeat(63)).parse().unwrap();
        assert_eq!(tv, want);
    }

    #[test]
    fn x_density() {
        let tv: TritVec = "XX01".parse().unwrap();
        assert!((tv.x_density() - 0.5).abs() < 1e-12);
        assert_eq!(TritVec::new().x_density(), 0.0);
    }

    #[test]
    fn iter_is_double_ended() {
        let tv: TritVec = "01X1".parse().unwrap();
        let rev: TritVec = tv.iter().rev().collect();
        assert_eq!(rev.to_string(), "1X10");
        let mut it = tv.iter();
        assert_eq!(it.next(), Some(Trit::Zero));
        assert_eq!(it.next_back(), Some(Trit::One));
        assert_eq!(it.len(), 2);
        assert_eq!(it.next(), Some(Trit::One));
        assert_eq!(it.next_back(), Some(Trit::X));
        assert_eq!(it.next(), None);
        assert_eq!(it.next_back(), None);
    }

    #[test]
    fn from_bitvec() {
        let bv = BitVec::from_str_radix2("101").unwrap();
        let tv = TritVec::from(&bv);
        assert_eq!(tv.to_string(), "101");
        assert_eq!(tv.count_x(), 0);
    }
}
