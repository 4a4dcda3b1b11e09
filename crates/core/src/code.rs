//! The nine-codeword prefix code at the heart of the 9C technique.
//!
//! A `K`-bit block is split into two `K/2`-bit halves; each half is either
//! *uniform* (compatible with all-zeros or all-ones, don't-cares included)
//! or a *mismatch* (`U`: contains both a care-0 and a care-1 and must be
//! transmitted verbatim). The nine possible half combinations are the nine
//! [`Case`]s; a [`CodeTable`] assigns each case a prefix-free codeword.
//!
//! The paper fixes the codeword *lengths* — {1, 2, 4, 5, 5, 5, 5, 5, 5},
//! a Kraft-tight set with maximum length 5 — but not the bit patterns; this
//! module constructs them canonically.

use std::fmt;

/// What a codeword promises about one half of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HalfSpec {
    /// The half decodes to all zeros (its `X`s are bound to 0).
    Zero,
    /// The half decodes to all ones (its `X`s are bound to 1).
    One,
    /// The half is transmitted verbatim after the codeword (its `X`s
    /// survive as leftover don't-cares).
    Mismatch,
}

impl HalfSpec {
    /// `true` for [`HalfSpec::Mismatch`].
    pub fn is_mismatch(self) -> bool {
        self == HalfSpec::Mismatch
    }
}

/// One of the nine block cases of Table I of the paper.
///
/// Naming follows the halves: `Z` = all-zeros, `O` = all-ones, `M` =
/// mismatch; e.g. [`Case::ZM`] is the paper's case 5 ("left half 0, right
/// half mismatch").
///
/// # Examples
///
/// ```
/// use ninec::code::{Case, HalfSpec};
///
/// assert_eq!(Case::ZZ.index(), 0);
/// assert_eq!(Case::ZZ.label(), "C1");
/// assert_eq!(Case::ZM.halves(), (HalfSpec::Zero, HalfSpec::Mismatch));
/// assert_eq!(Case::MM.payload_bits(8), 8);
/// assert_eq!(Case::ZM.payload_bits(8), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Case {
    /// C1: both halves all-zeros.
    ZZ,
    /// C2: both halves all-ones.
    OO,
    /// C3: left all-zeros, right all-ones.
    ZO,
    /// C4: left all-ones, right all-zeros.
    OZ,
    /// C5: left all-zeros, right mismatch.
    ZM,
    /// C6: left mismatch, right all-zeros.
    MZ,
    /// C7: left all-ones, right mismatch.
    OM,
    /// C8: left mismatch, right all-ones.
    MO,
    /// C9: both halves mismatch.
    MM,
}

/// All nine cases in paper order (C1 … C9).
pub const ALL_CASES: [Case; 9] = [
    Case::ZZ,
    Case::OO,
    Case::ZO,
    Case::OZ,
    Case::ZM,
    Case::MZ,
    Case::OM,
    Case::MO,
    Case::MM,
];

impl Case {
    /// Zero-based index (`C1` → 0, …, `C9` → 8).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The paper's label, `"C1"` … `"C9"`.
    pub fn label(self) -> &'static str {
        ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"][self.index()]
    }

    /// Case from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 9`.
    pub fn from_index(index: usize) -> Case {
        ALL_CASES[index]
    }

    /// The (left, right) half specifications.
    pub fn halves(self) -> (HalfSpec, HalfSpec) {
        use HalfSpec::{Mismatch, One, Zero};
        match self {
            Case::ZZ => (Zero, Zero),
            Case::OO => (One, One),
            Case::ZO => (Zero, One),
            Case::OZ => (One, Zero),
            Case::ZM => (Zero, Mismatch),
            Case::MZ => (Mismatch, Zero),
            Case::OM => (One, Mismatch),
            Case::MO => (Mismatch, One),
            Case::MM => (Mismatch, Mismatch),
        }
    }

    /// Verbatim payload bits that follow the codeword, for block size `k`.
    pub fn payload_bits(self, k: usize) -> usize {
        let (l, r) = self.halves();
        (l.is_mismatch() as usize + r.is_mismatch() as usize) * (k / 2)
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A single prefix codeword: up to 16 bits, stored MSB-first in the low
/// bits of `bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codeword {
    bits: u16,
    len: u8,
}

impl Codeword {
    /// Creates a codeword from its bit pattern (MSB-first in the low `len`
    /// bits) and length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or exceeds 16, or if `bits` has stray high bits.
    pub fn new(bits: u16, len: u8) -> Self {
        assert!(
            (1..=16).contains(&len),
            "codeword length {len} out of range"
        );
        assert!(
            len == 16 || bits < 1 << len,
            "codeword bits 0b{bits:b} do not fit in {len} bits"
        );
        Self { bits, len }
    }

    /// Length in bits.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Always `false`: codewords are at least one bit.
    pub fn is_empty(self) -> bool {
        false
    }

    /// Iterates the bits MSB-first.
    pub fn iter_bits(self) -> impl Iterator<Item = bool> {
        (0..self.len).rev().map(move |i| self.bits >> i & 1 == 1)
    }

    /// `true` if `self` is a prefix of `other` (or equal).
    pub fn is_prefix_of(self, other: Codeword) -> bool {
        self.len <= other.len && other.bits >> (other.len - self.len) == self.bits
    }
}

impl fmt::Display for Codeword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.iter_bits() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// The canonical codeword lengths of the paper: C1=1, C2=2, C3..C8=5, C9=4.
pub const PAPER_LENGTHS: [u8; 9] = [1, 2, 5, 5, 5, 5, 5, 5, 4];

/// An assignment of prefix-free codewords to the nine cases.
///
/// # Examples
///
/// ```
/// use ninec::code::{Case, CodeTable};
///
/// let table = CodeTable::paper();
/// assert_eq!(table.codeword(Case::ZZ).to_string(), "0");
/// assert_eq!(table.codeword(Case::OO).to_string(), "10");
/// assert_eq!(table.codeword(Case::MM).len(), 4);
/// assert!(table.is_prefix_free());
/// // The length multiset is Kraft-tight.
/// assert!((table.kraft_sum() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeTable {
    words: [Codeword; 9],
}

impl CodeTable {
    /// The paper's code: lengths {1, 2, 5, 5, 5, 5, 5, 5, 4} assigned to
    /// C1…C9 in order, with canonical bit patterns.
    pub fn paper() -> Self {
        Self::from_lengths(&PAPER_LENGTHS).expect("paper lengths satisfy Kraft")
    }

    /// Builds a canonical prefix code with `lengths[i]` bits for case
    /// `C(i+1)`.
    ///
    /// Codewords are assigned shortest-first (ties broken by case index) as
    /// in canonical Huffman coding, which yields a prefix-free table for
    /// any length set with Kraft sum ≤ 1.
    ///
    /// # Errors
    ///
    /// Returns [`KraftViolation`] if the lengths overflow the Kraft
    /// inequality or any length is outside `1..=16`.
    pub fn from_lengths(lengths: &[u8; 9]) -> Result<Self, KraftViolation> {
        if lengths.iter().any(|&l| l == 0 || l > 16) {
            return Err(KraftViolation {
                kraft_64ths: u64::MAX,
            });
        }
        // Kraft check in units of 2^-16 to stay exact.
        let kraft: u64 = lengths.iter().map(|&l| 1u64 << (16 - l)).sum();
        if kraft > 1 << 16 {
            return Err(KraftViolation { kraft_64ths: kraft });
        }
        let mut order: Vec<usize> = (0..9).collect();
        order.sort_by_key(|&i| (lengths[i], i));
        let mut words = [Codeword::new(0, 1); 9];
        let mut code: u32 = 0;
        let mut prev_len: u8 = 0;
        for &i in &order {
            let len = lengths[i];
            code <<= len - prev_len;
            words[i] = Codeword::new(code as u16, len);
            code += 1;
            prev_len = len;
        }
        Ok(Self { words })
    }

    /// The codeword assigned to `case`.
    pub fn codeword(&self, case: Case) -> Codeword {
        self.words[case.index()]
    }

    /// The nine codeword lengths in case order.
    pub fn lengths(&self) -> [u8; 9] {
        let mut out = [0u8; 9];
        for (i, w) in self.words.iter().enumerate() {
            out[i] = w.len;
        }
        out
    }

    /// Total encoded bits for one block of `case` at block size `k`
    /// (codeword plus verbatim payload) — the paper's "Size (bits)" column.
    pub fn block_bits(&self, case: Case, k: usize) -> usize {
        self.codeword(case).len() + case.payload_bits(k)
    }

    /// `true` if no codeword is a prefix of another.
    pub fn is_prefix_free(&self) -> bool {
        for i in 0..9 {
            for j in 0..9 {
                if i != j && self.words[i].is_prefix_of(self.words[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// `Σ 2^-len` over the nine codewords.
    pub fn kraft_sum(&self) -> f64 {
        self.words.iter().map(|w| 2f64.powi(-(w.len as i32))).sum()
    }

    /// Matches the longest-prefix codeword starting at `bits[start..]`,
    /// returning the case and consumed length.
    ///
    /// Returns `None` if no codeword matches (truncated or corrupt stream).
    ///
    /// This is the bit-serial reading of the paper's decoder FSM, one
    /// code bit per step; the cycle-counting decompressor model
    /// (`ninec-decompressor`) is its only caller. The software decoder
    /// ([`crate::decode::StreamDecoder`]) resolves a codeword in one
    /// table lookup instead, with the same result and the same typed
    /// errors.
    pub fn match_at<F>(&self, mut bit_at: F) -> Option<(Case, usize)>
    where
        F: FnMut(usize) -> Option<bool>,
    {
        // Max length is 16; walk bit by bit comparing against all words.
        let mut acc: u16 = 0;
        for len in 1..=16u8 {
            let bit = bit_at(len as usize - 1)?;
            acc = acc << 1 | bit as u16;
            for (i, w) in self.words.iter().enumerate() {
                if w.len == len && w.bits == acc {
                    return Some((Case::from_index(i), len as usize));
                }
            }
        }
        None
    }
}

impl Default for CodeTable {
    fn default() -> Self {
        Self::paper()
    }
}

impl fmt::Display for CodeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for case in ALL_CASES {
            writeln!(f, "{}: {}", case.label(), self.codeword(case))?;
        }
        Ok(())
    }
}

/// Error: a requested length set violates the Kraft inequality (or has an
/// out-of-range length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KraftViolation {
    kraft_64ths: u64,
}

impl fmt::Display for KraftViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codeword lengths violate the Kraft inequality or range")
    }
}

impl std::error::Error for KraftViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_shape() {
        let t = CodeTable::paper();
        assert_eq!(t.lengths(), PAPER_LENGTHS);
        assert!(t.is_prefix_free());
        assert!((t.kraft_sum() - 1.0).abs() < 1e-12);
        // Shortest codes go to the paper's most frequent cases.
        assert_eq!(t.codeword(Case::ZZ).len(), 1);
        assert_eq!(t.codeword(Case::OO).len(), 2);
        assert_eq!(t.codeword(Case::MM).len(), 4);
    }

    #[test]
    fn paper_block_sizes_match_table_one() {
        // Table I, K = 8: sizes 1, 2, 5, 5, 9, 9, 9, 9, 12.
        let t = CodeTable::paper();
        let expected = [1, 2, 5, 5, 9, 9, 9, 9, 12];
        for (case, want) in ALL_CASES.into_iter().zip(expected) {
            assert_eq!(t.block_bits(case, 8), want, "{case}");
        }
    }

    #[test]
    fn canonical_construction_is_prefix_free_for_any_permutation() {
        // Rotate the paper lengths through all cases.
        let mut lengths = PAPER_LENGTHS;
        for _ in 0..9 {
            lengths.rotate_left(1);
            let t = CodeTable::from_lengths(&lengths).unwrap();
            assert!(t.is_prefix_free(), "lengths {lengths:?}");
            assert_eq!(t.lengths(), lengths);
        }
    }

    #[test]
    fn kraft_violation_rejected() {
        assert!(CodeTable::from_lengths(&[1, 1, 5, 5, 5, 5, 5, 5, 4]).is_err());
        assert!(CodeTable::from_lengths(&[0, 2, 5, 5, 5, 5, 5, 5, 4]).is_err());
        assert!(CodeTable::from_lengths(&[17, 2, 5, 5, 5, 5, 5, 5, 4]).is_err());
    }

    #[test]
    fn prefix_relation() {
        let a = Codeword::new(0b10, 2);
        let b = Codeword::new(0b1011, 4);
        let c = Codeword::new(0b1100, 4);
        assert!(a.is_prefix_of(b));
        assert!(!a.is_prefix_of(c));
        assert!(a.is_prefix_of(a));
        assert!(!b.is_prefix_of(a));
    }

    #[test]
    fn match_at_decodes_every_codeword() {
        let t = CodeTable::paper();
        for case in ALL_CASES {
            let w = t.codeword(case);
            let bits: Vec<bool> = w.iter_bits().collect();
            let (got, used) = t.match_at(|i| bits.get(i).copied()).unwrap();
            assert_eq!(got, case);
            assert_eq!(used, w.len());
        }
    }

    #[test]
    fn match_at_none_on_truncated_stream() {
        let t = CodeTable::paper();
        // "11" alone matches nothing (all codewords starting 11 have >= 4 bits).
        let bits = [true, true];
        assert_eq!(t.match_at(|i| bits.get(i).copied()), None);
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Case::ZZ.payload_bits(16), 0);
        assert_eq!(Case::ZM.payload_bits(16), 8);
        assert_eq!(Case::MO.payload_bits(16), 8);
        assert_eq!(Case::MM.payload_bits(16), 16);
    }

    #[test]
    fn case_indexing_roundtrip() {
        for (i, case) in ALL_CASES.into_iter().enumerate() {
            assert_eq!(case.index(), i);
            assert_eq!(Case::from_index(i), case);
            assert_eq!(case.label(), format!("C{}", i + 1));
        }
    }

    #[test]
    fn codeword_display_and_bits() {
        let w = Codeword::new(0b11010, 5);
        assert_eq!(w.to_string(), "11010");
        let bits: Vec<bool> = w.iter_bits().collect();
        assert_eq!(bits, vec![true, true, false, true, false]);
    }
}
