//! GF(2^8) Reed–Solomon erasure coding for `9CSF` frame-v3 parity groups.
//!
//! Frame v3 groups data segments into parity groups of `g` members
//! protected by `r` parity shards. The code is a **systematic**
//! Reed–Solomon code over GF(256), built by polynomial evaluation: the
//! `g` data shards are read as the values of a degree `< g` polynomial
//! (per byte position) at the field points `0..g`, and parity shard `j`
//! is that polynomial evaluated at point `g + j`. Any `g` of the `g + r`
//! shards therefore determine the polynomial — and with them every
//! erased shard — which is the MDS property: up to `r` erased data
//! shards per group are recoverable, provided at least `g` shards
//! survive.
//!
//! Evaluation-point construction (instead of a raw Vandermonde parity
//! block) guarantees every square submatrix used for reconstruction is a
//! product of invertible Lagrange factors, so recovery can never hit a
//! singular system. Encoding stays systematic: the data shards are
//! stored verbatim, parity rides behind them, and a `parity = 0` frame
//! is byte-compatible with v2 on the wire apart from the header.
//!
//! The field is GF(2^8) with the AES-adjacent reduction polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`) and generator `0x02`; tables
//! are built at compile time, mirroring the const-table style of the
//! frame CRC and the dense-row design of the GF(2) solver in
//! `ninec-bist` (`gf2.rs`), its base-field sibling.
//!
//! Shards passed to [`ParityCoder::encode`] / [`ParityCoder::reconstruct`]
//! may be *shorter* than the group's shard length — they are implicitly
//! zero-padded, so ragged segment lengths and short final groups need no
//! padding copies on the caller's side.
//!
//! `ParityCoder::rebuild` is the one rebuild of a damaged parity group: it
//! sizes the group's shards and reconstructs its erased members. Both the
//! decode ladder's repair rung (`salvage`) and the archive scrubber
//! (`scrub`) call it; each keeps only its own acceptance check.

use std::fmt;

/// Ceiling on `g + r`: the evaluation points are distinct GF(256)
/// elements `0..g+r`, so a group plus its parity can span at most 255
/// shards (one point is kept in reserve).
pub const MAX_SHARDS: usize = 255;

/// `alpha^i` for `i in 0..510` (doubled so `EXP[log a + log b]` needs no
/// modular reduction), with `alpha = 0x02` and reduction by `0x11D`.
const EXP: [u8; 510] = {
    let mut exp = [0u8; 510];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 510 {
        exp[i] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11D;
        }
        i += 1;
    }
    exp
};

/// `log_alpha(v)` for `v in 1..=255`; `LOG[0]` is a sentinel and never
/// read (multiplication short-circuits on zero operands).
const LOG: [u8; 256] = {
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11D;
        }
        i += 1;
    }
    log
};

/// GF(256) product. Addition in the field is plain XOR.
#[must_use]
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
}

/// GF(256) multiplicative inverse. `gf_inv(0)` has no mathematical
/// meaning and returns `0`; the coder only inverts differences of
/// *distinct* evaluation points, which are never zero.
#[must_use]
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    EXP[255 - LOG[a as usize] as usize]
}

/// GF(256) quotient `a / b` (with the same zero convention as
/// [`gf_inv`]).
#[must_use]
#[inline]
pub fn gf_div(a: u8, b: u8) -> u8 {
    gf_mul(a, gf_inv(b))
}

/// The 256-entry product table of a fixed scalar — turns the per-byte
/// inner loop of encode/reconstruct into a table lookup + XOR.
fn mul_table(c: u8) -> [u8; 256] {
    let mut t = [0u8; 256];
    if c == 0 {
        return t;
    }
    for (b, slot) in t.iter_mut().enumerate() {
        *slot = gf_mul(c, b as u8);
    }
    t
}

/// Typed error for an invalid parity-group configuration or an
/// unrecoverable erasure pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EccError {
    /// `g` and `r` together exceed [`MAX_SHARDS`], or `g` is zero.
    BadGeometry {
        /// Data shards per group.
        g: usize,
        /// Parity shards per group.
        r: usize,
    },
    /// Fewer than `g` shards survive in the group: the erasures exceed
    /// the code's correction budget.
    NotEnoughShards {
        /// Surviving shards.
        have: usize,
        /// Shards required (`g`).
        need: usize,
    },
    /// The shard slice handed to [`ParityCoder::reconstruct`] does not
    /// hold exactly `g + r` slots.
    ShardCountMismatch {
        /// Slots provided.
        got: usize,
        /// Slots expected (`g + r`).
        expected: usize,
    },
}

impl fmt::Display for EccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EccError::BadGeometry { g, r } => {
                write!(
                    f,
                    "invalid parity geometry g={g} r={r} (need 1 <= g and g + r <= {MAX_SHARDS})"
                )
            }
            EccError::NotEnoughShards { have, need } => {
                write!(
                    f,
                    "unrecoverable erasures: {have} shards survive, {need} required"
                )
            }
            EccError::ShardCountMismatch { got, expected } => {
                write!(f, "shard slice holds {got} slots, group expects {expected}")
            }
        }
    }
}

impl std::error::Error for EccError {}

/// A parity group rebuilt by [`ParityCoder::rebuild`]: its shard length
/// and `(slot, bytes)` for every erased member.
pub(crate) type GroupRebuild = (usize, Vec<(usize, Vec<u8>)>);

/// A systematic RS-over-GF(256) coder for one parity geometry `(g, r)`.
///
/// The encoder matrix (the `r × g` Lagrange evaluation rows) is computed
/// once at construction; [`encode`](ParityCoder::encode) and
/// [`reconstruct`](ParityCoder::reconstruct) are then pure table-driven
/// byte loops.
#[derive(Debug, Clone)]
pub struct ParityCoder {
    g: usize,
    r: usize,
    /// Row-major `r × g`: `rows[j * g + i]` is data shard `i`'s
    /// coefficient in parity shard `j`.
    rows: Vec<u8>,
}

/// Lagrange basis coefficient `L_s(x)` for target point `x` over the
/// basis points `points`, where `s = points[sel]`. All points must be
/// distinct (guaranteed by construction — they are distinct field
/// elements `0..g+r`).
fn lagrange_coeff(x: u8, points: &[u8], sel: usize) -> u8 {
    let xs = points[sel];
    let mut num = 1u8;
    let mut den = 1u8;
    for (m, &xm) in points.iter().enumerate() {
        if m == sel {
            continue;
        }
        num = gf_mul(num, x ^ xm);
        den = gf_mul(den, xs ^ xm);
    }
    gf_div(num, den)
}

impl ParityCoder {
    /// Builds the coder for groups of `g` data shards and `r` parity
    /// shards.
    ///
    /// # Errors
    ///
    /// [`EccError::BadGeometry`] unless `1 <= g`, `1 <= r` and
    /// `g + r <= 255`.
    pub fn new(g: usize, r: usize) -> Result<Self, EccError> {
        if g == 0 || r == 0 || g + r > MAX_SHARDS {
            return Err(EccError::BadGeometry { g, r });
        }
        let data_points: Vec<u8> = (0..g as u8).collect();
        let mut rows = Vec::with_capacity(r * g);
        for j in 0..r {
            let x = (g + j) as u8;
            for i in 0..g {
                rows.push(lagrange_coeff(x, &data_points, i));
            }
        }
        Ok(Self { g, r, rows })
    }

    /// Data shards per group.
    #[must_use]
    pub fn g(&self) -> usize {
        self.g
    }

    /// Parity shards per group.
    #[must_use]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Encodes the `r` parity shards, each `shard_len` bytes, over up to
    /// `g` data shards. Shards shorter than `shard_len` (including a
    /// `data` slice shorter than `g`, the short-final-group case) are
    /// implicitly zero-padded — a zero shard contributes nothing, so no
    /// padding copies are made.
    #[must_use]
    pub fn encode(&self, data: &[&[u8]], shard_len: usize) -> Vec<Vec<u8>> {
        let mut parity = vec![vec![0u8; shard_len]; self.r];
        for (j, out) in parity.iter_mut().enumerate() {
            for (i, shard) in data.iter().enumerate().take(self.g) {
                let c = self.rows[j * self.g + i];
                if c == 0 {
                    continue;
                }
                let t = mul_table(c);
                for (o, &b) in out.iter_mut().zip(shard.iter()) {
                    *o ^= t[b as usize];
                }
            }
        }
        parity
    }

    /// Reconstructs every erased **data** shard of one group.
    ///
    /// `shards` holds the group's `g + r` slots in order — data shards
    /// `0..g`, then parity shards `g..g+r`. `Some` slots are surviving
    /// shards (shorter-than-`shard_len` shards are implicitly
    /// zero-padded); `None` slots are erasures. Returns
    /// `(data_index, bytes)` for every erased data slot, each exactly
    /// `shard_len` bytes.
    ///
    /// # Errors
    ///
    /// [`EccError::ShardCountMismatch`] when `shards.len() != g + r`;
    /// [`EccError::NotEnoughShards`] when fewer than `g` slots survive
    /// (the erasures exceed the `r`-erasure correction budget).
    pub fn reconstruct(
        &self,
        shards: &[Option<&[u8]>],
        shard_len: usize,
    ) -> Result<Vec<(usize, Vec<u8>)>, EccError> {
        if shards.len() != self.g + self.r {
            return Err(EccError::ShardCountMismatch {
                got: shards.len(),
                expected: self.g + self.r,
            });
        }
        let missing: Vec<usize> = shards[..self.g]
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        // Basis: the first `g` surviving shards (data or parity alike).
        let mut basis_points: Vec<u8> = Vec::with_capacity(self.g);
        let mut basis_shards: Vec<&[u8]> = Vec::with_capacity(self.g);
        for (i, slot) in shards.iter().enumerate() {
            if let Some(bytes) = slot {
                basis_points.push(i as u8);
                basis_shards.push(bytes);
                if basis_points.len() == self.g {
                    break;
                }
            }
        }
        if basis_points.len() < self.g {
            return Err(EccError::NotEnoughShards {
                have: shards.iter().filter(|s| s.is_some()).count(),
                need: self.g,
            });
        }
        let mut out = Vec::with_capacity(missing.len());
        for &t in &missing {
            let mut rebuilt = vec![0u8; shard_len];
            for (sel, shard) in basis_shards.iter().enumerate() {
                let c = lagrange_coeff(t as u8, &basis_points, sel);
                if c == 0 {
                    continue;
                }
                let table = mul_table(c);
                for (o, &b) in rebuilt.iter_mut().zip(shard.iter()) {
                    *o ^= table[b as usize];
                }
            }
            out.push((t, rebuilt));
        }
        Ok(out)
    }

    /// Rebuilds the erased members of one parity group.
    ///
    /// `members` holds the group's data shards in slot order, `None` for
    /// an erased one; the slots past its end, up to `g`, are the virtual
    /// zero members of a short final group. `parity` holds the group's `r`
    /// parity shards, `None` for a lost one. The shard length is the
    /// length the surviving parity shards share or, when none survives,
    /// that of the longest surviving member. Returns that length and
    /// `(slot, bytes)` for every erased member, each `shard_len` bytes.
    ///
    /// `None` when the surviving parity shards differ in length, a
    /// surviving member is longer than the shard length (the parity cannot
    /// cover it), the slots do not fit the geometry, or fewer than `g`
    /// shards survive.
    pub(crate) fn rebuild(
        &self,
        members: &[Option<&[u8]>],
        parity: &[Option<&[u8]>],
    ) -> Option<GroupRebuild> {
        let mut parity_lens = parity.iter().flatten().map(|p| p.len());
        let shard_len = match parity_lens.next() {
            Some(len) if parity_lens.all(|l| l == len) => len,
            Some(_) => return None,
            None => members.iter().flatten().map(|m| m.len()).max().unwrap_or(0),
        };
        if members.iter().flatten().any(|m| m.len() > shard_len) {
            return None;
        }
        let virtual_members = self.g.checked_sub(members.len())?;
        let slots: Vec<Option<&[u8]>> = members
            .iter()
            .copied()
            .chain(std::iter::repeat_n(Some(&[][..]), virtual_members))
            .chain(parity.iter().copied())
            .collect();
        let rebuilt = self.reconstruct(&slots, shard_len).ok()?;
        Some((shard_len, rebuilt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_hold_on_a_sample() {
        // Exhaustive over a stride-sampled triple set: associativity,
        // commutativity, distributivity, inverses.
        let vals: Vec<u8> = (0u16..256).step_by(7).map(|v| v as u8).collect();
        for &a in &vals {
            for &b in &vals {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
                for &c in &vals {
                    assert_eq!(gf_mul(gf_mul(a, b), c), gf_mul(a, gf_mul(b, c)));
                    assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
                }
            }
        }
        for a in 1u16..=255 {
            let a = a as u8;
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inv({a})");
            assert_eq!(gf_div(a, a), 1);
        }
        assert_eq!(gf_mul(0, 77), 0);
        assert_eq!(gf_inv(0), 0);
    }

    #[test]
    fn exp_log_are_mutually_inverse() {
        for i in 0..255usize {
            assert_eq!(LOG[EXP[i] as usize] as usize, i);
        }
        // The generator has full order: EXP hits every nonzero element.
        let mut seen = [false; 256];
        for i in 0..255usize {
            seen[EXP[i] as usize] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 255);
        assert!(!seen[0]);
    }

    #[test]
    fn bad_geometry_is_rejected() {
        assert!(matches!(
            ParityCoder::new(0, 1),
            Err(EccError::BadGeometry { .. })
        ));
        assert!(matches!(
            ParityCoder::new(4, 0),
            Err(EccError::BadGeometry { .. })
        ));
        assert!(matches!(
            ParityCoder::new(200, 56),
            Err(EccError::BadGeometry { .. })
        ));
        assert!(ParityCoder::new(200, 55).is_ok());
        assert!(ParityCoder::new(1, 1).is_ok());
    }

    #[test]
    fn g1_parity_is_replication() {
        let coder = ParityCoder::new(1, 2).expect("valid geometry");
        let data = [0xABu8, 0x00, 0xFF, 0x12];
        let parity = coder.encode(&[&data], 4);
        assert_eq!(parity.len(), 2);
        assert_eq!(parity[0], data);
        assert_eq!(parity[1], data);
        // Losing the data shard recovers it from either replica.
        let rec = coder
            .reconstruct(&[None, Some(&parity[0]), None], 4)
            .expect("recoverable");
        assert_eq!(rec, vec![(0usize, data.to_vec())]);
    }

    #[test]
    fn roundtrip_recovers_any_erasure_within_budget() {
        // Deterministic xorshift so the test needs no external RNG.
        let mut state = 0x9E37_79B9u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for &(g, r) in &[(1usize, 1usize), (2, 1), (4, 2), (5, 3), (8, 4), (16, 2)] {
            let coder = ParityCoder::new(g, r).expect("valid geometry");
            let shard_len = 37;
            let data: Vec<Vec<u8>> = (0..g)
                .map(|_| (0..shard_len).map(|_| next() as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let parity = coder.encode(&refs, shard_len);
            // Erase up to r shards (data and/or parity), 50 random patterns.
            for _ in 0..50 {
                let erase_n = (next() as usize % r) + 1;
                let mut slots: Vec<Option<&[u8]>> = refs
                    .iter()
                    .map(|s| Some(*s))
                    .chain(parity.iter().map(|p| Some(p.as_slice())))
                    .collect();
                let mut erased = Vec::new();
                while erased.len() < erase_n {
                    let i = next() as usize % (g + r);
                    if slots[i].is_some() {
                        slots[i] = None;
                        erased.push(i);
                    }
                }
                let rec = coder
                    .reconstruct(&slots, shard_len)
                    .expect("within erasure budget");
                for (idx, bytes) in rec {
                    assert!(idx < g);
                    assert_eq!(bytes, data[idx], "g={g} r={r} shard {idx}");
                }
            }
        }
    }

    #[test]
    fn over_budget_erasures_are_a_typed_error() {
        let coder = ParityCoder::new(4, 2).expect("valid geometry");
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = coder.encode(&refs, 8);
        let mut slots: Vec<Option<&[u8]>> = refs
            .iter()
            .map(|s| Some(*s))
            .chain(parity.iter().map(|p| Some(p.as_slice())))
            .collect();
        slots[0] = None;
        slots[1] = None;
        slots[4] = None; // three erasures, r = 2
        assert_eq!(
            coder.reconstruct(&slots, 8),
            Err(EccError::NotEnoughShards { have: 3, need: 4 })
        );
        // Wrong slot count is typed too.
        assert!(matches!(
            coder.reconstruct(&slots[..5], 8),
            Err(EccError::ShardCountMismatch {
                got: 5,
                expected: 6
            })
        ));
    }

    #[test]
    fn short_shards_are_zero_padded() {
        let coder = ParityCoder::new(3, 1).expect("valid geometry");
        let a = [1u8, 2, 3, 4];
        let b = [9u8, 8]; // short: padded with two zero bytes
        let c = [5u8, 5, 5, 5];
        let parity = coder.encode(&[&a, &b, &c], 4);
        let b_padded = [9u8, 8, 0, 0];
        let parity_padded = coder.encode(&[&a, &b_padded, &c], 4);
        assert_eq!(parity, parity_padded);
        // Reconstruction of the short shard yields the padded form.
        let rec = coder
            .reconstruct(&[Some(&a), None, Some(&c), Some(&parity[0])], 4)
            .expect("recoverable");
        assert_eq!(rec, vec![(1usize, b_padded.to_vec())]);
    }

    #[test]
    fn short_final_group_treats_absent_members_as_zero() {
        let coder = ParityCoder::new(4, 1).expect("valid geometry");
        let a = [7u8; 6];
        let b = [3u8; 6];
        // Only 2 of 4 members exist.
        let parity_short = coder.encode(&[&a, &b], 6);
        let zero = [0u8; 6];
        let parity_full = coder.encode(&[&a, &b, &zero, &zero], 6);
        assert_eq!(parity_short, parity_full);
        // Erasing a real member still reconstructs when the virtual
        // members are declared as present empty shards.
        let rec = coder
            .reconstruct(
                &[Some(&a), None, Some(&[]), Some(&[]), Some(&parity_short[0])],
                6,
            )
            .expect("recoverable");
        assert_eq!(rec, vec![(1usize, b.to_vec())]);
    }

    #[test]
    fn rebuild_sizes_the_group_and_refuses_what_parity_cannot_cover() {
        let coder = ParityCoder::new(4, 2).expect("valid geometry");
        let a = [7u8, 1, 2, 3, 4, 5];
        let b = [3u8, 9, 9];
        let b_padded = vec![3u8, 9, 9, 0, 0, 0];
        // A short final group: two real members, two virtual zero ones.
        let parity = coder.encode(&[&a, &b], 6);
        let (p0, p1) = (Some(&parity[0][..]), Some(&parity[1][..]));
        assert_eq!(
            coder.rebuild(&[None, None], &[p0, p1]),
            Some((6, vec![(0, a.to_vec()), (1, b_padded.clone())]))
        );
        assert_eq!(
            coder.rebuild(&[Some(&a), None], &[None, p1]),
            Some((6, vec![(1, b_padded)]))
        );
        // Surviving parity shards of different lengths.
        assert_eq!(
            coder.rebuild(&[Some(&a), None], &[p0, Some(&parity[1][..5])]),
            None
        );
        // A surviving member longer than the parity.
        assert_eq!(coder.rebuild(&[Some(&[1u8; 7]), None], &[p0, p1]), None);
        // An erased member with no surviving parity.
        assert_eq!(coder.rebuild(&[Some(&a), None], &[None, None]), None);
        // With no parity left and nothing erased, the longest member
        // sizes the group.
        assert_eq!(
            coder.rebuild(&[Some(&a), Some(&b)], &[None, None]),
            Some((6, Vec::new()))
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            EccError::BadGeometry { g: 0, r: 1 },
            EccError::NotEnoughShards { have: 1, need: 2 },
            EccError::ShardCountMismatch {
                got: 1,
                expected: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
