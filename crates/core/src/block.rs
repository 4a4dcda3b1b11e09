//! Block and half classification, and greedy case selection.

use crate::code::{Case, CodeTable, HalfSpec, ALL_CASES};
use ninec_testdata::slice::TritSlice;
use ninec_testdata::trit::{Trit, TritVec};

/// Compatibility classes of one `K/2`-bit half.
///
/// A half is compatible with all-zeros if every symbol is `0` or `X`, and
/// with all-ones if every symbol is `1` or `X`; an all-`X` half is
/// compatible with both. A half containing both a care-0 and a care-1 is a
/// *mismatch* and must travel verbatim.
///
/// # Examples
///
/// ```
/// use ninec::block::HalfClass;
/// use ninec_testdata::trit::TritVec;
///
/// let h: TritVec = "0X0X".parse()?;
/// let class = HalfClass::classify(h.iter());
/// assert!(class.can_zero && !class.can_one && !class.is_mismatch());
/// let all_x = HalfClass::classify("XX".parse::<TritVec>()?.iter());
/// assert!(all_x.can_zero && all_x.can_one);
/// # Ok::<(), ninec_testdata::trit::ParseTritError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfClass {
    /// Compatible with all-zeros.
    pub can_zero: bool,
    /// Compatible with all-ones.
    pub can_one: bool,
}

impl HalfClass {
    /// Classifies a half given its symbols.
    ///
    /// This is the scalar (per-symbol) reference;
    /// [`HalfClass::classify_slice`] does the same in `O(len / 64)` word
    /// operations. The two are checked against each other by the
    /// differential test-suite.
    pub fn classify<I: IntoIterator<Item = Trit>>(half: I) -> Self {
        Self::classify_scalar(half)
    }

    /// Scalar per-symbol classification, kept as the behavioural reference
    /// for differential testing against [`HalfClass::classify_slice`].
    #[doc(hidden)]
    pub fn classify_scalar<I: IntoIterator<Item = Trit>>(half: I) -> Self {
        let mut class = HalfClass {
            can_zero: true,
            can_one: true,
        };
        for t in half {
            match t {
                Trit::Zero => class.can_one = false,
                Trit::One => class.can_zero = false,
                Trit::X => {}
            }
            if class.is_mismatch() {
                break;
            }
        }
        class
    }

    /// Word-parallel classification of `slice[from .. to]`.
    ///
    /// Uses the packed care/value planes: the half is one-compatible iff
    /// no specified zero exists (`care & !value == 0` over the range) and
    /// zero-compatible iff no specified one exists (`value == 0`), each a
    /// masked popcount-style scan costing `O((to - from) / 64)` word
    /// operations. An empty range is compatible with both, matching the
    /// `X`-padding semantics of partial final blocks.
    ///
    /// This is the encoder's hot path only for `K > 64`. For `K ≤ 64` the
    /// encoder applies the same two masks to each half of a block held in
    /// one word.
    ///
    /// # Examples
    ///
    /// ```
    /// use ninec::block::HalfClass;
    /// use ninec_testdata::trit::TritVec;
    ///
    /// let stream: TritVec = "0X0X1X11".parse()?;
    /// let left = HalfClass::classify_slice(stream.as_slice(), 0, 4);
    /// assert!(left.can_zero && !left.can_one);
    /// let right = HalfClass::classify_slice(stream.as_slice(), 4, 8);
    /// assert!(right.can_one && !right.can_zero);
    /// # Ok::<(), ninec_testdata::trit::ParseTritError>(())
    /// ```
    #[must_use]
    pub fn classify_slice(slice: TritSlice<'_>, from: usize, to: usize) -> Self {
        let (can_zero, can_one) = slice.classify_range(from, to);
        HalfClass { can_zero, can_one }
    }

    /// `true` if the half is compatible with neither uniform value.
    pub fn is_mismatch(self) -> bool {
        !self.can_zero && !self.can_one
    }

    /// Whether this half can be encoded under `spec`.
    ///
    /// Any half may be declared [`HalfSpec::Mismatch`] (sent verbatim);
    /// uniform specs require the corresponding compatibility.
    pub fn satisfies(self, spec: HalfSpec) -> bool {
        match spec {
            HalfSpec::Zero => self.can_zero,
            HalfSpec::One => self.can_one,
            HalfSpec::Mismatch => true,
        }
    }
}

/// Chooses the cheapest feasible case for a block with halves `(left,
/// right)` under `table` at block size `k`.
///
/// Cost is codeword length plus verbatim payload; ties break toward the
/// lower case index (the paper's order). With the paper's table this
/// reduces to the intuitive greedy: C1 if possible, else C2, C3, C4, then
/// the single-mismatch cases, then C9 — but the exhaustive search also
/// stays optimal under frequency-reassigned tables, where at small `K` a
/// short mismatch codeword can undercut a 5-bit uniform one.
///
/// # Examples
///
/// ```
/// use ninec::block::{choose_case, HalfClass};
/// use ninec::code::{Case, CodeTable};
///
/// let table = CodeTable::paper();
/// let zeros = HalfClass { can_zero: true, can_one: false };
/// let both = HalfClass { can_zero: true, can_one: true };
/// let mis = HalfClass { can_zero: false, can_one: false };
/// assert_eq!(choose_case(both, both, &table, 8), Case::ZZ);
/// assert_eq!(choose_case(zeros, mis, &table, 8), Case::ZM);
/// assert_eq!(choose_case(mis, mis, &table, 8), Case::MM);
/// ```
pub fn choose_case(left: HalfClass, right: HalfClass, table: &CodeTable, k: usize) -> Case {
    let mut best: Option<(usize, Case)> = None;
    for case in ALL_CASES {
        let (ls, rs) = case.halves();
        if !left.satisfies(ls) || !right.satisfies(rs) {
            continue;
        }
        let cost = table.block_bits(case, k);
        match best {
            Some((b, _)) if b <= cost => {}
            _ => best = Some((cost, case)),
        }
    }
    best.map(|(_, c)| c).expect("MM is always feasible")
}

/// Classifies the block `stream[start .. start + k]` and picks its case.
///
/// # Panics
///
/// Panics if the block does not fit in `stream` or `k` is odd/zero.
pub fn classify_block(stream: &TritVec, start: usize, k: usize, table: &CodeTable) -> Case {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "block size must be even and >= 2, got {k}"
    );
    assert!(start + k <= stream.len(), "block out of range");
    let half = k / 2;
    let block = stream.slice_view(start, start + k);
    let left = HalfClass::classify_slice(block, 0, half);
    let right = HalfClass::classify_slice(block, half, k);
    choose_case(left, right, table, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::PAPER_LENGTHS;

    fn class(s: &str) -> HalfClass {
        HalfClass::classify(s.parse::<TritVec>().unwrap().iter())
    }

    #[test]
    fn classification_basics() {
        assert!(class("0000").can_zero);
        assert!(!class("0000").can_one);
        assert!(class("1X11").can_one);
        assert!(!class("1X11").can_zero);
        assert!(class("XXXX").can_zero && class("XXXX").can_one);
        assert!(class("0X1X").is_mismatch());
    }

    #[test]
    fn greedy_prefers_cheapest_uniform_case() {
        let t = CodeTable::paper();
        // Both halves all-X: C1 (1 bit) beats C2 (2 bits).
        assert_eq!(choose_case(class("XX"), class("XX"), &t, 4), Case::ZZ);
        // Left forced 1, right all-X: C2 (2 bits) beats C4 (5 bits).
        assert_eq!(choose_case(class("1X"), class("XX"), &t, 4), Case::OO);
        // Left forced 0, right forced 1: only C3 among the uniform cases.
        assert_eq!(choose_case(class("00"), class("11"), &t, 4), Case::ZO);
        assert_eq!(choose_case(class("11"), class("0X"), &t, 4), Case::OZ);
    }

    #[test]
    fn single_mismatch_cases() {
        let t = CodeTable::paper();
        assert_eq!(choose_case(class("0X"), class("01"), &t, 4), Case::ZM);
        assert_eq!(choose_case(class("01"), class("X0"), &t, 4), Case::MZ);
        assert_eq!(choose_case(class("1X"), class("10"), &t, 4), Case::OM);
        assert_eq!(choose_case(class("10"), class("11"), &t, 4), Case::MO);
    }

    #[test]
    fn mismatch_with_flexible_half_prefers_cheaper_codeword() {
        let t = CodeTable::paper();
        // Right half is all-X: ZM and OM are both feasible with equal cost;
        // the tie breaks to the lower index, ZM (C5).
        assert_eq!(choose_case(class("XX"), class("XX"), &t, 4), Case::ZZ);
        assert_eq!(choose_case(class("10"), class("XX"), &t, 4), Case::MZ);
    }

    #[test]
    fn reassigned_table_can_flip_the_greedy_choice() {
        // Give MM the 1-bit codeword. At K = 4 a block with one forced-0
        // half and one forced-1 half costs: ZO = 5 (its codeword is now 5
        // bits) vs MM = 1 + 4 = 5 — tie, broken toward ZO (lower index).
        // At K = 2 the MM encoding would win outright; K = 4 documents the
        // tie-break, and the swapped C1<->C9 lengths keep Kraft tight.
        let mut lengths = PAPER_LENGTHS;
        lengths.swap(0, 8); // C1 <-> C9
        let t = CodeTable::from_lengths(&lengths).unwrap();
        let got = choose_case(class("00"), class("11"), &t, 4);
        assert_eq!(got, Case::ZO);
        // A genuinely uniform-both block still uses the cheapest uniform
        // case under the swapped table (OO has 2 bits < ZZ's 4).
        assert_eq!(choose_case(class("XX"), class("XX"), &t, 4), Case::OO);
    }

    #[test]
    fn classify_block_on_stream() {
        let t = CodeTable::paper();
        let stream: TritVec = "0000XXXX01XX1111".parse().unwrap();
        assert_eq!(classify_block(&stream, 0, 8, &t), Case::ZZ);
        assert_eq!(classify_block(&stream, 8, 8, &t), Case::MO);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_block_size_panics() {
        let t = CodeTable::paper();
        let stream: TritVec = "000".parse().unwrap();
        let _ = classify_block(&stream, 0, 3, &t);
    }
}
