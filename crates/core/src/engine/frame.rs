//! The `9CSF` segment-frame container format.
//!
//! A frame makes a 9C stream *splittable*: variable-length codewords have
//! no internal sync points, so parallel decode needs out-of-band segment
//! boundaries. The frame records them self-describingly — each segment
//! carries its own block size `K`, source trit count, encoded payload
//! length and a CRC — mirroring the paper's Fig. 4(c) parallel-decoder
//! architecture, where the encoded stream is pre-split across independent
//! FSMs.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! file header (31 bytes):
//!   magic        4  b"9CSF"
//!   version      1  = 2
//!   flags        1  = 0 (reserved)
//!   code lengths 9  codeword length of C1..C9 (rebuilds the CodeTable)
//!   segments     4  u32 segment count
//!   source_len   8  u64 total source trits across all segments
//!   header_crc   4  CRC-32 (IEEE) over the 27 bytes above
//! per segment (16-byte header + payload):
//!   k            2  u16 block size for this segment
//!   reserved     2  = 0
//!   source_trits 4  u32 source trits this segment covers
//!   payload_trits4  u32 encoded trits in the payload
//!   crc32        4  CRC-32 (IEEE) over the 12 header bytes above + payload
//!   payload      ceil(payload_trits / 4) bytes, 2 bits per trit LSB-first
//!                (00 = 0, 01 = 1, 10 = X, 11 = invalid)
//! ```
//!
//! The `u32` length fields give every segment a hard ceiling of
//! `u32::MAX` (≈4 Gi) source trits and payload trits; the writer reports
//! oversized segments as [`FrameError::SegmentTooLarge`] rather than
//! panicking, so callers that shard their own streams must keep each
//! segment under 4 Gi trits.
//!
//! ## Frame v3: parity groups
//!
//! Version 3 extends the file header by two bytes and appends
//! Reed–Solomon parity segments behind the data segments:
//!
//! ```text
//! file header (33 bytes):
//!   magic        4  b"9CSF"
//!   version      1  = 3
//!   flags        1  = 0 (reserved)
//!   code lengths 9  codeword length of C1..C9
//!   segments     4  u32 data-segment count
//!   source_len   8  u64 total source trits across all data segments
//!   parity_g     1  data segments per parity group (0 = no parity)
//!   parity_r     1  parity segments per group
//!   header_crc   4  CRC-32 (IEEE) over the 29 bytes above
//! per parity segment (16-byte header + payload):
//!   marker       2  u16 = 0xFFFF (odd, so it can never parse as a K)
//!   group        4  u32 parity-group index
//!   pindex       2  u16 parity index within the group (0..r)
//!   data_len     4  u32 payload length in bytes (the group's shard len)
//!   crc32        4  CRC-32 (IEEE) over the 12 header bytes above + payload
//!   payload      data_len bytes of GF(256) Reed–Solomon parity
//! ```
//!
//! Data segments keep their v2 byte layout exactly and come first, so a
//! v3 frame with `parity_g = 0` is byte-identical to v2 apart from the
//! header. The `segments` count covers **data** segments only; parity
//! segments follow in `(group, pindex)` order. Data segment `i` belongs
//! to group `i % G` where `G = ceil(segments / parity_g)` — interleaved
//! assignment, so a damage *burst* over adjacent segments lands in
//! different groups and stays repairable. Parity shard `pindex` of a
//! group is the group's member segments (full header + payload bytes,
//! zero-padded to the group's longest member, absent members of a short
//! group all-zero) encoded with [`crate::engine::ecc::ParityCoder`]:
//! any `≤ r` erased members per group can be rebuilt byte-exactly and
//! then re-verified against their own CRC.
//!
//! Version history: v1 had no `header_crc` field (27-byte header). A
//! corrupted code-length byte could rebuild a *different* Kraft-valid
//! table and decode to silently wrong bits, so v2 covers the file header
//! with its own CRC and v1 is no longer accepted. v3 adds the parity
//! geometry bytes and parity segments; v2 frames remain fully supported.
//!
//! Every parse error is a typed [`FrameError`] — a corrupt or truncated
//! frame can never panic the decoder. Parsing is also *allocation-safe*:
//! all header-claimed sizes are validated against the remaining input
//! bytes and the caller's [`DecodeLimits`] **before** any allocation, so
//! a decompression-bomb header (e.g. a 40-byte file claiming `u32::MAX`
//! segments) is rejected with [`FrameError::Truncated`] /
//! [`FrameError::LimitExceeded`] instead of triggering a huge
//! `with_capacity`.
//!
//! This module parses one segment at a time and probes for
//! resynchronisation points; the one walk over a whole frame body —
//! strict, fault-tolerant or streamed — is the plan builder's
//! ([`crate::engine::plan`]).

use super::crc::{self, PrefixCrc};
use crate::stream::{low_bits, TritSource};
use ninec_testdata::trit::TritVec;
use std::fmt;

pub use super::crc::crc32;

/// The four magic bytes opening every segment frame.
pub const MAGIC: [u8; 4] = *b"9CSF";
/// Current frame format version without parity (the default wire format).
pub const VERSION: u8 = 2;
/// Frame format version carrying parity groups.
pub const VERSION_V3: u8 = 3;
/// File header size in bytes (v2: includes the trailing header CRC).
pub const HEADER_BYTES: usize = 31;
/// File header size in bytes (v3: v2 plus `parity_g` / `parity_r`).
pub const HEADER_BYTES_V3: usize = 33;
/// Per-segment header size in bytes (data and parity segments alike).
pub const SEGMENT_HEADER_BYTES: usize = 16;
/// Byte count of the v2 file header covered by `header_crc`.
const HEADER_CRC_COVERS: usize = 27;
/// Byte count of the v3 file header covered by `header_crc`.
const HEADER_CRC_COVERS_V3: usize = 29;
/// The `k`-field sentinel opening a parity-segment header. Deliberately
/// odd: a data-segment parse rejects any odd `K`, so the two header
/// kinds can never be confused.
pub const PARITY_MARKER: u16 = 0xFFFF;

/// Resource ceilings enforced while parsing or salvaging a frame.
///
/// Every limit is checked *before* the corresponding allocation, so a
/// hostile frame whose headers claim absurd sizes is rejected with
/// [`FrameError::LimitExceeded`] instead of exhausting memory. The
/// [`Default`] limits are generous for test-data workloads (a million
/// segments, 256 Mi trits per segment, 1 GiB of total decode
/// allocation); [`DecodeLimits::unlimited`] switches every ceiling off
/// for trusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeLimits {
    /// Maximum number of segments a frame may claim.
    pub max_segments: usize,
    /// Maximum source or payload trits any single segment may claim.
    pub max_segment_trits: usize,
    /// Approximate ceiling, in bytes, on the total memory a decode may
    /// allocate for trit buffers (output + per-segment scratch).
    pub max_total_alloc: usize,
    /// Maximum resynchronisation probe positions a salvage scan (or the
    /// streaming reader) may try per damaged range before giving up with
    /// a typed [`FrameError::LimitExceeded`] — bounds the scan's worst
    /// case on adversarial input.
    pub max_resync_probes: usize,
    /// Maximum byte size of a `9CA` archive epoch index
    /// ([`crate::engine::archive`]) this reader will load. An archive
    /// index is parsed *before* any per-frame allocation, so a bombed
    /// index claiming absurd record counts is rejected here with
    /// [`FrameError::LimitExceeded`] instead of exhausting memory.
    pub max_index_bytes: usize,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        Self {
            max_segments: 1 << 20,
            max_segment_trits: 1 << 28,
            max_total_alloc: 1 << 30,
            max_resync_probes: 1 << 20,
            max_index_bytes: 1 << 26,
        }
    }
}

impl DecodeLimits {
    /// No ceilings at all — for trusted frames (e.g. ones this process
    /// just encoded). Structural bomb checks (claimed sizes vs. the
    /// bytes actually present) still apply; they are free.
    #[must_use]
    pub fn unlimited() -> Self {
        Self {
            max_segments: usize::MAX,
            max_segment_trits: usize::MAX,
            max_total_alloc: usize::MAX,
            max_resync_probes: usize::MAX,
            max_index_bytes: usize::MAX,
        }
    }

    /// Byte ceiling any single shard (a data segment's header + payload,
    /// or a parity segment's payload) may claim under these limits.
    /// Derived from `max_segment_trits` (2 bits per trit) plus the
    /// segment header.
    #[must_use]
    pub fn max_shard_bytes(&self) -> usize {
        trit_alloc_bytes(self.max_segment_trits).saturating_add(SEGMENT_HEADER_BYTES)
    }
}

/// Bytes a [`TritVec`] of `trits` trits allocates (2 bits per trit).
pub(crate) fn trit_alloc_bytes(trits: usize) -> usize {
    trits.div_ceil(4)
}

/// Typed error for a malformed, corrupt or truncated segment frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The stream does not start with the `9CSF` magic.
    BadMagic,
    /// The frame version is newer than this decoder understands.
    UnsupportedVersion {
        /// The version byte found in the header.
        found: u8,
    },
    /// The byte stream ended before the promised structure was complete.
    Truncated {
        /// Byte offset at which more data was required.
        offset: usize,
    },
    /// The file header's own CRC-32 does not match its bytes — the code
    /// table and segment count are untrustworthy, so even salvage mode
    /// treats this as fatal.
    BadHeaderCrc,
    /// A segment's CRC-32 does not match its header + payload bytes.
    BadCrc {
        /// Zero-based segment index.
        segment: usize,
    },
    /// The stored code lengths violate the Kraft inequality and cannot
    /// rebuild a prefix-free table.
    BadTable,
    /// A structurally invalid segment (bad `K`, reserved bits set, an
    /// invalid `11` trit code, or lengths that disagree with the header).
    Malformed {
        /// Zero-based segment index (or the segment count for file-level
        /// inconsistencies discovered after the last segment).
        segment: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// A header-claimed size exceeds the caller's [`DecodeLimits`].
    LimitExceeded {
        /// Which limit was hit.
        what: &'static str,
        /// The size the frame claimed.
        requested: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// Encode-side: a segment is too large for its `u16`/`u32` header
    /// fields (4 Gi-trit per-segment ceiling; see the module docs).
    SegmentTooLarge {
        /// Which field overflowed.
        what: &'static str,
        /// The offending length.
        len: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "not a 9CSF segment frame (bad magic)"),
            FrameError::UnsupportedVersion { found } => {
                write!(f, "unsupported 9CSF frame version {found}")
            }
            FrameError::Truncated { offset } => {
                write!(f, "frame truncated at byte offset {offset}")
            }
            FrameError::BadHeaderCrc => {
                write!(f, "file header CRC mismatch (header corrupt)")
            }
            FrameError::BadCrc { segment } => {
                write!(f, "CRC mismatch in segment {segment}")
            }
            FrameError::BadTable => {
                write!(f, "stored code lengths violate the Kraft inequality")
            }
            FrameError::Malformed { segment, what } => {
                write!(f, "malformed segment {segment}: {what}")
            }
            FrameError::LimitExceeded {
                what,
                requested,
                limit,
            } => {
                write!(
                    f,
                    "decode limit exceeded: {what} {requested} > limit {limit}"
                )
            }
            FrameError::SegmentTooLarge { what, len } => {
                write!(
                    f,
                    "segment too large to frame: {what} {len} overflows its header field"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Why a byte range of a frame was classified as damaged during a
/// salvage scan or salvage decode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DamageReason {
    /// The segment's CRC-32 did not match its bytes.
    BadCrc,
    /// The frame ended before the segment's promised bytes.
    Truncated,
    /// The segment header was structurally invalid.
    Malformed(&'static str),
    /// A header-claimed size exceeded the [`DecodeLimits`].
    LimitExceeded(&'static str),
    /// The segment passed its CRC but its payload failed 9C decoding
    /// (an adversarial or buggy writer).
    Decode(crate::decode::DecodeError),
    /// The worker decoding this segment panicked (only reachable with a
    /// fault injected via the `failpoints` feature, or a codec bug).
    WorkerPanicked,
    /// The file header's claims (segment count / source-length total)
    /// disagree with the segments actually present — e.g. spliced or
    /// duplicated segments.
    HeaderMismatch(&'static str),
    /// The caller's [`CancelToken`](crate::CancelToken) tripped before
    /// this segment's worker ran; its trits were erased to `X` so the
    /// salvage report stays a valid (if partial) answer.
    Cancelled,
    /// Not terminal damage: the segment was damaged on the wire but
    /// **rebuilt byte-exactly** from parity group `group` using
    /// `parity_used` parity shards, then re-verified against its own
    /// CRC. Its trits in the output are real, not `X`.
    RepairedBy {
        /// Parity group that reconstructed the segment.
        group: usize,
        /// Parity shards consumed by the reconstruction.
        parity_used: usize,
    },
}

impl fmt::Display for DamageReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DamageReason::BadCrc => write!(f, "CRC mismatch"),
            DamageReason::Truncated => write!(f, "truncated"),
            DamageReason::Malformed(what) => write!(f, "malformed: {what}"),
            DamageReason::LimitExceeded(what) => write!(f, "limit exceeded: {what}"),
            DamageReason::Decode(e) => write!(f, "payload decode failed: {e}"),
            DamageReason::WorkerPanicked => write!(f, "decode worker panicked"),
            DamageReason::HeaderMismatch(what) => write!(f, "header mismatch: {what}"),
            DamageReason::Cancelled => write!(f, "decode cancelled before this segment ran"),
            DamageReason::RepairedBy { group, parity_used } => {
                write!(
                    f,
                    "repaired bit-exactly by parity group {group} ({parity_used} parity shards)"
                )
            }
        }
    }
}

impl DamageReason {
    /// `true` when the damage was fully repaired (the trits are real,
    /// not erased): the [`DamageReason::RepairedBy`] case.
    #[must_use]
    pub fn is_repaired(&self) -> bool {
        matches!(self, DamageReason::RepairedBy { .. })
    }

    /// The decode-ladder rung this damage entry resolved on, for the
    /// flight recorder and per-frame audits: `Repaired` when parity
    /// rebuilt the segment byte-exactly, `Salvaged` when its trits were
    /// erased to `X`.
    #[must_use]
    pub fn rung(&self) -> ninec_obs::RungKind {
        if self.is_repaired() {
            ninec_obs::RungKind::Repaired
        } else {
            ninec_obs::RungKind::Salvaged
        }
    }
}

impl DamageReason {
    pub(crate) fn from_frame_error(e: FrameError) -> Self {
        match e {
            FrameError::BadCrc { .. } => DamageReason::BadCrc,
            FrameError::Truncated { .. } => DamageReason::Truncated,
            FrameError::Malformed { what, .. } => DamageReason::Malformed(what),
            FrameError::LimitExceeded { what, .. } => DamageReason::LimitExceeded(what),
            // Unreachable from `segment_at`, but total anyway.
            _ => DamageReason::Malformed("unparseable segment"),
        }
    }
}

/// One parsed (CRC-verified) segment, borrowing its payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedSegment<'a> {
    /// Block size `K` for this segment.
    pub k: usize,
    /// Source trits this segment covers.
    pub source_trits: usize,
    /// Encoded trits in the payload.
    pub payload_trits: usize,
    /// The packed payload bytes (2 bits per trit).
    pub payload: &'a [u8],
}

/// Appends the file header for `segments` segments totalling `source_len`
/// source trits, encoded with a table of codeword `lengths`. The trailing
/// header CRC-32 is computed and appended automatically.
pub fn write_header(out: &mut Vec<u8>, lengths: [u8; 9], segments: u32, source_len: u64) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(0); // flags
    out.extend_from_slice(&lengths);
    out.extend_from_slice(&segments.to_le_bytes());
    out.extend_from_slice(&source_len.to_le_bytes());
    let crc = crc32(&out[start..start + HEADER_CRC_COVERS]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends a v3 file header: like [`write_header`] but with the parity
/// geometry `(parity_g, parity_r)` and the v3 version byte. `segments`
/// counts **data** segments only.
pub fn write_header_v3(
    out: &mut Vec<u8>,
    lengths: [u8; 9],
    segments: u32,
    source_len: u64,
    parity_g: u8,
    parity_r: u8,
) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION_V3);
    out.push(0); // flags
    out.extend_from_slice(&lengths);
    out.extend_from_slice(&segments.to_le_bytes());
    out.extend_from_slice(&source_len.to_le_bytes());
    out.push(parity_g);
    out.push(parity_r);
    let crc = crc32(&out[start..start + HEADER_CRC_COVERS_V3]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// One parsed (CRC-verified) v3 parity segment, borrowing its shard
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedParity<'a> {
    /// Parity-group index this shard protects.
    pub group: usize,
    /// Parity index within the group (`0..r`).
    pub pindex: usize,
    /// The GF(256) parity shard: `data_len` bytes, covering the group's
    /// member segments zero-padded to this length.
    pub payload: &'a [u8],
}

/// Appends one v3 parity segment (header + shard bytes) to `out`.
///
/// # Errors
///
/// [`FrameError::SegmentTooLarge`] when `group`, `pindex` or the shard
/// length overflows its header field. On error nothing is appended.
pub fn write_parity_segment(
    out: &mut Vec<u8>,
    group: usize,
    pindex: usize,
    shard: &[u8],
) -> Result<(), FrameError> {
    let group32 = match u32::try_from(group) {
        Ok(v) => v,
        Err(_) => {
            return Err(FrameError::SegmentTooLarge {
                what: "parity group index",
                len: group,
            })
        }
    };
    let pindex16 = match u16::try_from(pindex) {
        Ok(v) => v,
        Err(_) => {
            return Err(FrameError::SegmentTooLarge {
                what: "parity index",
                len: pindex,
            })
        }
    };
    let len32 = match u32::try_from(shard.len()) {
        Ok(v) => v,
        Err(_) => {
            return Err(FrameError::SegmentTooLarge {
                what: "parity shard bytes",
                len: shard.len(),
            })
        }
    };
    let mut header = [0u8; 12];
    header[0..2].copy_from_slice(&PARITY_MARKER.to_le_bytes());
    header[2..6].copy_from_slice(&group32.to_le_bytes());
    header[6..8].copy_from_slice(&pindex16.to_le_bytes());
    header[8..12].copy_from_slice(&len32.to_le_bytes());
    let crc = crc::crc32_pair(&header, shard);
    out.extend_from_slice(&header);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(shard);
    Ok(())
}

/// The CRC a segment header at `at` with payload ending at `end` must
/// store, from `index` when the caller keeps one over `bytes`.
fn expected_crc(bytes: &[u8], at: usize, end: usize, index: Option<&mut PrefixCrc>) -> u32 {
    match index {
        Some(index) => index.segment_crc(bytes, at, end),
        None => crc::segment_crc(bytes, at, end),
    }
}

/// Parses and CRC-verifies one parity segment starting at byte `at`,
/// returning the shard and the offset just past it — checking the CRC
/// through `index` when the caller keeps one over `bytes`. Performs *no*
/// allocation; every claimed size is checked against the bytes present
/// and against `limits` first.
pub(crate) fn parity_at<'a>(
    bytes: &'a [u8],
    at: usize,
    segment: usize,
    limits: &DecodeLimits,
    index: Option<&mut PrefixCrc>,
) -> Result<(ParsedParity<'a>, usize), FrameError> {
    let header_end = at
        .checked_add(SEGMENT_HEADER_BYTES)
        .ok_or(FrameError::Truncated { offset: at })?;
    let header = bytes
        .get(at..header_end)
        .ok_or(FrameError::Truncated { offset: at })?;
    if u16::from_le_bytes([header[0], header[1]]) != PARITY_MARKER {
        return Err(FrameError::Malformed {
            segment,
            what: "not a parity segment (missing marker)",
        });
    }
    let group = u32::from_le_bytes([header[2], header[3], header[4], header[5]]) as usize;
    let pindex = u16::from_le_bytes([header[6], header[7]]) as usize;
    let data_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let crc_stored = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    // Bomb checks before trusting `data_len`: the shard must physically
    // fit in the remaining input and respect the per-shard byte ceiling.
    if data_len > limits.max_shard_bytes() {
        return Err(FrameError::LimitExceeded {
            what: "parity shard bytes",
            requested: data_len,
            limit: limits.max_shard_bytes(),
        });
    }
    let payload_end = header_end
        .checked_add(data_len)
        .ok_or(FrameError::Truncated {
            offset: bytes.len(),
        })?;
    let payload = bytes
        .get(header_end..payload_end)
        .ok_or(FrameError::Truncated {
            offset: bytes.len(),
        })?;
    if expected_crc(bytes, at, payload_end, index) != crc_stored {
        return Err(FrameError::BadCrc { segment });
    }
    Ok((
        ParsedParity {
            group,
            pindex,
            payload,
        },
        payload_end,
    ))
}

/// Packs `payload` at 2 bits per trit, LSB-first within each byte:
/// `00` is a zero, `01` a one, `10` an `X`. Pad bits past the last trit
/// are zero. Works 32 trits (one `u64` of codes) per step.
#[must_use]
pub fn pack_payload(payload: &TritVec) -> Vec<u8> {
    let trits = payload.as_slice();
    let mut bytes = Vec::with_capacity(payload.len().div_ceil(4));
    for at in (0..payload.len()).step_by(32) {
        let n = (payload.len() - at).min(32);
        let x = !trits.care_word(at, n) & ((1u64 << n) - 1);
        let codes = spread_bits(trits.value_word(at, n)) | spread_bits(x) << 1;
        bytes.extend_from_slice(&codes.to_le_bytes()[..n.div_ceil(4)]);
    }
    bytes
}

/// The even bits of a `u64` of 2-bit trit codes: bit `2i` of the code
/// word is the low code bit of trit `i`.
const EVEN_BITS: u64 = 0x5555_5555_5555_5555;

/// Moves bit `i` of the 32-bit `bits` to bit `2i`.
fn spread_bits(bits: u64) -> u64 {
    let mut x = bits & 0xffff_ffff;
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & EVEN_BITS
}

/// Moves bit `2i` of `bits` to bit `i` (the inverse of [`spread_bits`]);
/// odd bits are ignored.
#[inline]
pub(crate) fn gather_bits(bits: u64) -> u64 {
    let mut x = bits & EVEN_BITS;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    (x | x >> 16) & 0xffff_ffff
}

/// Appends one segment (header + packed payload) to `out`.
///
/// # Errors
///
/// [`FrameError::SegmentTooLarge`] when `k` exceeds `u16::MAX` or either
/// length exceeds the `u32` header fields (the 4 Gi-trit per-segment
/// ceiling; see the module docs). On error nothing is appended.
pub fn write_segment(
    out: &mut Vec<u8>,
    k: usize,
    source_trits: usize,
    payload: &TritVec,
) -> Result<(), FrameError> {
    let k16 = match u16::try_from(k) {
        Ok(v) => v,
        Err(_) => {
            return Err(FrameError::SegmentTooLarge {
                what: "block size K",
                len: k,
            })
        }
    };
    let src32 = match u32::try_from(source_trits) {
        Ok(v) => v,
        Err(_) => {
            return Err(FrameError::SegmentTooLarge {
                what: "segment source trits",
                len: source_trits,
            })
        }
    };
    let pay32 = match u32::try_from(payload.len()) {
        Ok(v) => v,
        Err(_) => {
            return Err(FrameError::SegmentTooLarge {
                what: "segment payload trits",
                len: payload.len(),
            })
        }
    };
    let mut header = [0u8; 12];
    header[0..2].copy_from_slice(&k16.to_le_bytes());
    // bytes 2..4 reserved, zero
    header[4..8].copy_from_slice(&src32.to_le_bytes());
    header[8..12].copy_from_slice(&pay32.to_le_bytes());
    let bytes = pack_payload(payload);
    let crc = crc::crc32_pair(&header, &bytes);
    out.extend_from_slice(&header);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&bytes);
    Ok(())
}

/// `true` if `bytes` starts with the `9CSF` magic (cheap format sniff).
#[must_use]
pub fn is_frame(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Reads a little-endian `u32` at `at`, or `None` past the end.
pub(crate) fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let s = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Reads a little-endian `u64` at `at`, or `None` past the end.
fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let s = bytes.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes([
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
    ]))
}

/// The validated file header of a frame (v2 or v3), as the in-memory
/// walk and a [`FrameReader`](crate::engine::FrameReader) see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Codeword lengths of the stored 9C table.
    pub table_lengths: [u8; 9],
    /// Claimed data segment count.
    pub segments: usize,
    /// Claimed parity segment count (0 for v2 frames).
    pub parity_segments: usize,
    /// Total source trits the frame decodes to.
    pub source_len: usize,
    /// Frame version (2 or 3).
    pub version: u8,
    /// Data segments per parity group (0 = no parity).
    pub parity_g: u8,
    /// Parity shards per group.
    pub parity_r: u8,
}

impl StreamHeader {
    /// Number of parity groups covering the data segments.
    pub(crate) fn groups(&self) -> usize {
        group_count(self.segments, self.parity_g)
    }

    /// Size of this header on the wire: the body starts here.
    pub(crate) fn header_bytes(&self) -> usize {
        if self.version == VERSION_V3 {
            HEADER_BYTES_V3
        } else {
            HEADER_BYTES
        }
    }
}

/// Number of parity groups for `data_segments` data segments at group
/// size `g` (`ceil(n / g)`; 0 when either is 0).
#[must_use]
pub fn group_count(data_segments: usize, g: u8) -> usize {
    if g == 0 || data_segments == 0 {
        0
    } else {
        data_segments.div_ceil(g as usize)
    }
}

/// Parity group of data segment `index` under interleaved assignment
/// across `groups` groups (`index % groups`).
#[must_use]
pub fn group_of(index: usize, groups: usize) -> usize {
    if groups == 0 {
        0
    } else {
        index % groups
    }
}

/// Data-segment indices belonging to parity group `group`, in shard-slot
/// order: slot `s` holds segment `group + s·groups`, for every such index
/// below `n`. The slots past the last one, up to the group size `g`, are
/// the virtual zero members of a short final group. This is the one
/// statement of the slot layout that encode, repair and scrub share.
pub fn group_members(group: usize, n: usize, groups: usize) -> impl Iterator<Item = usize> {
    let step = groups.max(1);
    (group..n).step_by(step)
}

/// Parses and validates the file header — v2 (31 bytes) or v3 (33
/// bytes): magic, version, header CRC, count/source-length limits and
/// (v3) the parity geometry. Shared by strict parse, salvage and the
/// streaming reader.
pub(crate) fn parse_file_header(
    bytes: &[u8],
    limits: &DecodeLimits,
) -> Result<StreamHeader, FrameError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if bytes.len() < HEADER_BYTES {
        return Err(FrameError::Truncated {
            offset: bytes.len(),
        });
    }
    let version = bytes[4];
    let (header_bytes, crc_covers) = match version {
        VERSION => (HEADER_BYTES, HEADER_CRC_COVERS),
        VERSION_V3 => (HEADER_BYTES_V3, HEADER_CRC_COVERS_V3),
        found => return Err(FrameError::UnsupportedVersion { found }),
    };
    if bytes.len() < header_bytes {
        return Err(FrameError::Truncated {
            offset: bytes.len(),
        });
    }
    let stored = le_u32(bytes, crc_covers).ok_or(FrameError::Truncated {
        offset: bytes.len(),
    })?;
    if crc32(&bytes[..crc_covers]) != stored {
        return Err(FrameError::BadHeaderCrc);
    }
    let mut table_lengths = [0u8; 9];
    table_lengths.copy_from_slice(&bytes[6..15]);
    let claimed_segments = le_u32(bytes, 15).ok_or(FrameError::Truncated {
        offset: bytes.len(),
    })? as usize;
    let source_len_u64 = le_u64(bytes, 19).ok_or(FrameError::Truncated {
        offset: bytes.len(),
    })?;
    let source_len = usize::try_from(source_len_u64).map_err(|_| FrameError::Malformed {
        segment: 0,
        what: "source length exceeds the address space",
    })?;
    let (parity_g, parity_r) = if version == VERSION_V3 {
        let g = bytes[27];
        let r = bytes[28];
        if g as usize + r as usize > crate::engine::ecc::MAX_SHARDS {
            return Err(FrameError::Malformed {
                segment: 0,
                what: "parity geometry exceeds the GF(256) shard ceiling",
            });
        }
        if g == 0 && r != 0 {
            return Err(FrameError::Malformed {
                segment: 0,
                what: "parity shards declared without a group size",
            });
        }
        (g, r)
    } else {
        (0, 0)
    };
    if claimed_segments > limits.max_segments {
        return Err(FrameError::LimitExceeded {
            what: "segment count",
            requested: claimed_segments,
            limit: limits.max_segments,
        });
    }
    if trit_alloc_bytes(source_len) > limits.max_total_alloc {
        return Err(FrameError::LimitExceeded {
            what: "source-length allocation",
            requested: trit_alloc_bytes(source_len),
            limit: limits.max_total_alloc,
        });
    }
    Ok(StreamHeader {
        table_lengths,
        segments: claimed_segments,
        parity_segments: group_count(claimed_segments, parity_g) * parity_r as usize,
        source_len,
        version,
        parity_g,
        parity_r,
    })
}

/// The checks of a data-segment header that need neither the payload nor
/// the limits — reserved bytes, then the block size — returning `K`.
/// `header` holds the segment's [`SEGMENT_HEADER_BYTES`] header bytes.
pub(crate) fn check_data_header(header: &[u8], segment: usize) -> Result<usize, FrameError> {
    if header[2] != 0 || header[3] != 0 {
        return Err(FrameError::Malformed {
            segment,
            what: "reserved segment-header bytes are nonzero",
        });
    }
    let k = u16::from_le_bytes([header[0], header[1]]) as usize;
    if k < 4 || !k.is_multiple_of(2) {
        return Err(FrameError::Malformed {
            segment,
            what: "segment block size must be even and at least 4",
        });
    }
    Ok(k)
}

/// Parses and CRC-verifies one segment starting at byte `at`, returning
/// the segment and the offset just past its payload — checking the CRC
/// through `index` when the caller keeps one over `bytes`. Performs *no*
/// allocation: every claimed size is checked against the bytes actually
/// present and against `limits` first.
pub(crate) fn segment_at<'a>(
    bytes: &'a [u8],
    at: usize,
    segment: usize,
    limits: &DecodeLimits,
    index: Option<&mut PrefixCrc>,
) -> Result<(ParsedSegment<'a>, usize), FrameError> {
    let header_end = at
        .checked_add(SEGMENT_HEADER_BYTES)
        .ok_or(FrameError::Truncated { offset: at })?;
    let header = bytes
        .get(at..header_end)
        .ok_or(FrameError::Truncated { offset: at })?;
    let k = check_data_header(header, segment)?;
    let source_trits = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    let payload_trits = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let crc_stored = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    // Bomb check: the payload must physically fit in the remaining input
    // before anything trusts `payload_trits`. Slicing allocates nothing.
    let payload_bytes = payload_trits.div_ceil(4);
    let payload_end = header_end
        .checked_add(payload_bytes)
        .ok_or(FrameError::Truncated {
            offset: bytes.len(),
        })?;
    let payload = bytes
        .get(header_end..payload_end)
        .ok_or(FrameError::Truncated {
            offset: bytes.len(),
        })?;
    if expected_crc(bytes, at, payload_end, index) != crc_stored {
        return Err(FrameError::BadCrc { segment });
    }
    // CRC is good, so the claims are what the writer wrote — now hold
    // them to the caller's limits and to 9C structure (each K-trit block
    // consumes at least one payload trit, so a CRC-valid header claiming
    // more output than `payload_trits * k` is an expansion bomb).
    if source_trits > limits.max_segment_trits {
        return Err(FrameError::LimitExceeded {
            what: "segment source trits",
            requested: source_trits,
            limit: limits.max_segment_trits,
        });
    }
    if payload_trits > limits.max_segment_trits {
        return Err(FrameError::LimitExceeded {
            what: "segment payload trits",
            requested: payload_trits,
            limit: limits.max_segment_trits,
        });
    }
    if source_trits > payload_trits.saturating_mul(k) {
        return Err(FrameError::Malformed {
            segment,
            what: "segment claims more source trits than its payload can encode",
        });
    }
    Ok((
        ParsedSegment {
            k,
            source_trits,
            payload_trits,
            payload,
        },
        payload_end,
    ))
}

/// `true` when `blob` is one intact stored segment — a parity segment
/// when `parity` — that parses to exactly its own length, CRC and
/// `limits` included. The archive checks every stored blob this way.
pub(crate) fn is_whole_segment(blob: &[u8], parity: bool, limits: &DecodeLimits) -> bool {
    let end = if parity {
        parity_at(blob, 0, 0, limits, None).map(|(_, end)| end)
    } else {
        segment_at(blob, 0, 0, limits, None).map(|(_, end)| end)
    };
    end.is_ok_and(|end| end == blob.len())
}

/// Publishes frame-health counters for a failed parse/scan step.
pub(crate) fn publish_failure_metrics(e: &FrameError) {
    match e {
        FrameError::BadCrc { .. } | FrameError::BadHeaderCrc => {
            crate::metrics::publish_count(ninec_obs::catalogue::FRAME_CRC_FAILURES, 1);
        }
        FrameError::LimitExceeded { .. } => {
            crate::metrics::publish_count(ninec_obs::catalogue::FRAME_LIMIT_REJECTIONS, 1);
        }
        _ => {}
    }
}

/// The payload bytes claimed by the segment header at the start of
/// `head` — a parity header when `parity` — or `None` when the header
/// fails a check that reads no payload: a data header's reserved bytes
/// or `K`, or a parity shard claim past [`DecodeLimits::max_shard_bytes`].
pub(crate) fn claimed_payload(head: &[u8], parity: bool, limits: &DecodeLimits) -> Option<usize> {
    // Both header layouts carry their payload size claim at +8.
    let claim = le_u32(head, 8)? as usize;
    if parity {
        (claim <= limits.max_shard_bytes()).then_some(claim)
    } else {
        check_data_header(head, 0)
            .ok()
            .map(|_| trit_alloc_bytes(claim))
    }
}

/// Where a [`find_resync`] scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resync {
    /// A segment parses here — or, at the end of the input, none does.
    At(usize),
    /// The probe at `at` needs the bytes up to `until` (or the end of
    /// the input) before it can be decided.
    Need {
        /// The undecided probe position.
        at: usize,
        /// Where its segment header's size claim ends.
        until: usize,
    },
}

/// Probes `bytes` from `from` on for the next offset where a CRC-valid
/// segment (data or, for v3 frames, parity) parses, or the end of the
/// input when none does. `eof` says whether `bytes` runs to the end of
/// the input; if it does not, a probe the bytes at hand cannot decide
/// stops the scan with [`Resync::Need`] and the caller resumes from
/// there with more bytes.
///
/// Probing never allocates. Headers that no payload can make parse —
/// reserved bytes, a bad `K`, or a size claim past
/// [`DecodeLimits::max_shard_bytes`] — fail without reading their
/// payload, and CRCs are checked through `index`, which the caller keeps
/// over `bytes`. Decided probes are counted in `probes`, across
/// resumptions. Probes are expected to fail, so they publish no failure
/// metrics.
///
/// # Errors
///
/// [`FrameError::LimitExceeded`] when
/// [`DecodeLimits::max_resync_probes`] positions were probed without
/// either resynchronising or reaching the end of the input.
pub(crate) fn find_resync(
    bytes: &[u8],
    from: usize,
    eof: bool,
    v3: bool,
    limits: &DecodeLimits,
    probes: &mut usize,
    index: &mut PrefixCrc,
) -> Result<Resync, FrameError> {
    let len = bytes.len();
    let mut p = from;
    loop {
        // A valid segment needs a 16-byte header, so stop early.
        let header_end = p.saturating_add(SEGMENT_HEADER_BYTES);
        let Some(header) = bytes.get(p..header_end) else {
            return Ok(if eof {
                Resync::At(len)
            } else {
                Resync::Need {
                    at: p,
                    until: header_end,
                }
            });
        };
        if *probes >= limits.max_resync_probes {
            return Err(FrameError::LimitExceeded {
                what: "resync probes",
                requested: *probes + 1,
                limit: limits.max_resync_probes,
            });
        }
        let parity = v3 && header[..2] == PARITY_MARKER.to_le_bytes();
        // A claim no limits admit cannot parse either: no need to read it.
        let until = claimed_payload(header, parity, limits)
            .filter(|&c| c <= limits.max_shard_bytes())
            .and_then(|c| header_end.checked_add(c));
        match until {
            Some(until) if until > len && !eof => return Ok(Resync::Need { at: p, until }),
            Some(_) => {
                *probes += 1;
                // Exactly when `segment_at` or `parity_at` would succeed
                // here, with the CRC answered by `index`.
                let hit = if parity {
                    parity_at(bytes, p, 0, limits, Some(index)).is_ok()
                } else {
                    segment_at(bytes, p, 0, limits, Some(index)).is_ok()
                };
                if hit {
                    return Ok(Resync::At(p));
                }
            }
            None => *probes += 1,
        }
        p += 1;
    }
}

/// A segment's payload read in place: `len` trits packed 2 bits each,
/// LSB-first, as [`pack_payload`] writes them. The decoder's word window
/// reads it 32 trits (one `u64` of codes, through [`gather_bits`]) per
/// step, so a segment decodes from its payload bytes without an
/// unpacked copy. Built only by [`checked_payload`], so no reserved `11`
/// code is among the trits it reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedTrits<'a> {
    bytes: &'a [u8],
    len: usize,
}

impl PackedTrits<'_> {
    /// The 2-bit codes of the 32 trits from `trit` on, zero past the
    /// bytes.
    #[inline]
    fn codes(&self, trit: usize) -> u64 {
        let (at, shift) = (trit / 4, 2 * (trit % 4));
        // Nine bytes hold 32 codes at any shift within the first byte.
        let nine = match self.bytes.get(at..).and_then(<[u8]>::first_chunk::<9>) {
            Some(&nine) => nine,
            None => {
                let mut nine = [0u8; 9];
                let tail = self.bytes.get(at..).unwrap_or_default();
                let n = tail.len().min(9);
                nine[..n].copy_from_slice(&tail[..n]);
                nine
            }
        };
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8] = nine;
        let low = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
        // `<< 1 << (63 - shift)` is `<< (64 - shift)`, and 0 at shift 0.
        low >> shift | u64::from(b8) << 1 << (63 - shift)
    }
}

impl TritSource for PackedTrits<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn word(&self, pos: usize, n: usize) -> (u64, u64) {
        let low = self.codes(pos);
        let high = if n > 32 { self.codes(pos + 32) } else { 0 };
        // Code bit 1 marks an `X`, bit 0 a one.
        let x = gather_bits(low >> 1) | gather_bits(high >> 1) << 32;
        let care = !x & low_bits(n);
        (care, (gather_bits(low) | gather_bits(high) << 32) & care)
    }
}

/// Checks a segment's payload before any of it is decoded, attributing
/// errors to `segment`, and returns its trits to read in place. One
/// word-at-a-time scan of the bytes, so a reserved code outranks a short
/// payload, and both outrank every 9C decode error.
///
/// # Errors
///
/// [`FrameError::Malformed`] if a reserved `11` trit code appears among
/// the trits whose bytes are present. (The CRC already caught random
/// corruption; this guards against a buggy or adversarial *writer*.)
/// Otherwise [`FrameError::Truncated`] when `payload` holds fewer than
/// `payload_trits` trits.
pub(crate) fn checked_payload<'a>(
    seg: &ParsedSegment<'a>,
    segment: usize,
) -> Result<PackedTrits<'a>, FrameError> {
    // The trits whose bytes are present: all of them when `segment_at`
    // parsed the segment.
    let present = seg.payload_trits.min(seg.payload.len().saturating_mul(4));
    let bytes = &seg.payload[..present.div_ceil(4)];
    let (words, tail) = bytes.as_chunks::<8>();
    // The last word, whole or not, may hold pad bits past the last trit:
    // they are outside the data.
    let (body, last) = match (tail, words.split_last()) {
        ([], Some((last, body))) => (body, u64::from_le_bytes(*last)),
        _ => {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            (words, u64::from_le_bytes(last))
        }
    };
    let last = last & low_bits(2 * (present - 32 * body.len()));
    let high_codes = body.iter().fold(last & last >> 1, |acc, word| {
        let codes = u64::from_le_bytes(*word);
        acc | codes & codes >> 1
    });
    if high_codes & EVEN_BITS != 0 {
        return Err(FrameError::Malformed {
            segment,
            what: "invalid trit code 11 in payload",
        });
    }
    if present < seg.payload_trits {
        return Err(FrameError::Truncated {
            offset: seg.payload.len(),
        });
    }
    Ok(PackedTrits {
        bytes,
        len: present,
    })
}

/// Unpacks a segment's payload, attributing errors to `segment`: the
/// exact inverse of [`pack_payload`], read through the same checked,
/// 32-trits-per-step window the decoder reads a payload in place with.
///
/// # Errors
///
/// [`FrameError::Malformed`] if a reserved `11` trit code appears. (The
/// CRC already caught random corruption; this guards against a buggy or
/// adversarial *writer*.) Otherwise [`FrameError::Truncated`] when
/// `payload` holds fewer than `payload_trits` trits.
pub fn unpack_payload(seg: &ParsedSegment<'_>, segment: usize) -> Result<TritVec, FrameError> {
    let trits = checked_payload(seg, segment)?;
    let mut out = TritVec::with_capacity(trits.len);
    for at in (0..trits.len).step_by(64) {
        let n = (trits.len - at).min(64);
        let (care, value) = trits.word(at, n);
        out.push_words(care, value, n);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::plan::{self, BuildMode, FramePlan, PlanEntry};
    use ninec_testdata::trit::Trit;

    /// The fault-tolerant walk over a whole frame: a full plan build.
    fn scan<'a>(bytes: &'a [u8], limits: &DecodeLimits) -> Result<FramePlan<'a>, FrameError> {
        plan::build(bytes, limits, BuildMode::Full)
    }

    /// The fail-fast walk strict decode runs, which must find `bytes`
    /// strictly valid.
    fn strict_plan(bytes: &[u8]) -> FramePlan<'_> {
        let plan = plan::build(bytes, &DecodeLimits::default(), BuildMode::FailFast)
            .expect("file header parses");
        assert_eq!(plan.strict_error(), None);
        plan
    }

    /// Strict decode's typed error for `bytes` under `limits`: a
    /// file-level error or the fail-fast walk's strict verdict.
    fn strict_error(bytes: &[u8], limits: &DecodeLimits) -> Option<FrameError> {
        match plan::build(bytes, limits, BuildMode::FailFast) {
            Ok(plan) => plan.strict_error,
            Err(e) => Some(e),
        }
    }

    /// [`strict_error`] under the default limits.
    fn verdict(bytes: &[u8]) -> Option<FrameError> {
        strict_error(bytes, &DecodeLimits::default())
    }

    /// A plan's data segments, in stream order.
    fn data_segments<'a>(plan: &FramePlan<'a>) -> Vec<ParsedSegment<'a>> {
        plan.entries()
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Data { seg, .. } => Some(*seg),
                _ => None,
            })
            .collect()
    }

    /// A plan's parity shards, in stream order.
    fn parity_shards<'a>(plan: &FramePlan<'a>) -> Vec<ParsedParity<'a>> {
        plan.entries()
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Parity { par, .. } => Some(*par),
                _ => None,
            })
            .collect()
    }

    fn tv(s: &str) -> TritVec {
        s.parse().expect("valid trit literal")
    }

    fn sample_frame() -> Vec<u8> {
        let mut out = Vec::new();
        let payload_a = tv("0110X01");
        let payload_b = tv("111000X");
        write_header(&mut out, [1, 2, 5, 5, 5, 5, 5, 5, 4], 2, 32);
        write_segment(&mut out, 8, 16, &payload_a).expect("segment fits");
        write_segment(&mut out, 8, 16, &payload_b).expect("segment fits");
        out
    }

    /// The word-level pack writes exactly the per-trit layout (code `00`
    /// zero, `01` one, `10` X at bits `2(i mod 4)` of byte `i / 4`, pad
    /// bits zero), and the unpack inverts it, at every length 0–130 with
    /// an `X` at every position.
    #[test]
    fn payload_pack_is_the_per_trit_layout_and_unpack_inverts_it() {
        let mut state = 0x9c9c_u64;
        for len in 0..=130usize {
            for x_at in 0..len.max(1) {
                let payload: TritVec = (0..len)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        match (i == x_at, state >> 62) {
                            (true, _) | (false, 0) => Trit::X,
                            (false, 1) => Trit::One,
                            _ => Trit::Zero,
                        }
                    })
                    .collect();
                let mut expected = vec![0u8; len.div_ceil(4)];
                for (i, t) in payload.iter().enumerate() {
                    let code = match t {
                        Trit::Zero => 0b00,
                        Trit::One => 0b01,
                        Trit::X => 0b10,
                    };
                    expected[i / 4] |= code << (i % 4 * 2);
                }
                let packed = pack_payload(&payload);
                assert_eq!(packed, expected, "len {len}, X at {x_at}");
                let seg = ParsedSegment {
                    k: 8,
                    source_trits: len,
                    payload_trits: len,
                    payload: &packed,
                };
                assert_eq!(unpack_payload(&seg, 0), Ok(payload), "len {len}");
            }
        }
    }

    #[test]
    fn roundtrip_parse() {
        let bytes = sample_frame();
        assert!(is_frame(&bytes));
        let plan = strict_plan(&bytes);
        assert_eq!(plan.source_len(), 32);
        let segments = data_segments(&plan);
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].k, 8);
        assert_eq!(segments[0].source_trits, 16);
        assert_eq!(segments[0].payload_trits, 7);
        let a = unpack_payload(&segments[0], 0).expect("payload unpacks");
        assert_eq!(a.to_string(), "0110X01");
        let b = unpack_payload(&segments[1], 1).expect("payload unpacks");
        assert_eq!(b.to_string(), "111000X");
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample_frame();
        bytes[0] ^= 0xFF;
        assert!(!is_frame(&bytes));
        assert_eq!(verdict(&bytes), Some(FrameError::BadMagic));
    }

    #[test]
    fn unsupported_version_detected() {
        let mut bytes = sample_frame();
        bytes[4] = 99;
        assert_eq!(
            verdict(&bytes),
            Some(FrameError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn header_corruption_fails_header_crc() {
        let mut bytes = sample_frame();
        // Flip a code-length byte: without the v2 header CRC this could
        // rebuild a different Kraft-valid table and decode silently wrong.
        bytes[6] ^= 0x01;
        assert_eq!(verdict(&bytes), Some(FrameError::BadHeaderCrc));
        // Salvage treats an untrustworthy header as fatal too.
        assert!(matches!(
            scan(&bytes, &DecodeLimits::default()),
            Err(FrameError::BadHeaderCrc)
        ));
    }

    #[test]
    fn payload_corruption_fails_crc() {
        let mut bytes = sample_frame();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(verdict(&bytes), Some(FrameError::BadCrc { segment: 1 }));
    }

    #[test]
    fn header_corruption_fails_crc_or_shape() {
        let mut bytes = sample_frame();
        // Flip the first segment's K field: CRC covers it.
        bytes[HEADER_BYTES] ^= 0x02;
        let err = verdict(&bytes).expect("corrupt K must not parse");
        assert!(
            matches!(
                err,
                FrameError::BadCrc { .. }
                    | FrameError::Malformed { .. }
                    | FrameError::Truncated { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = sample_frame();
        for cut in 0..bytes.len() {
            let err = verdict(&bytes[..cut]).expect("truncated frame must not parse");
            if cut >= HEADER_BYTES {
                assert!(
                    matches!(err, FrameError::Truncated { .. }),
                    "cut {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_frame();
        bytes.push(0xAB);
        assert!(matches!(
            verdict(&bytes),
            Some(FrameError::Malformed {
                what: "trailing bytes after the last segment",
                ..
            })
        ));
    }

    #[test]
    fn segment_sum_must_match_header() {
        let mut out = Vec::new();
        write_header(&mut out, [1, 2, 5, 5, 5, 5, 5, 5, 4], 1, 99);
        write_segment(&mut out, 8, 16, &tv("01")).expect("segment fits");
        assert!(matches!(
            verdict(&out),
            Some(FrameError::Malformed {
                what: "segment source lengths do not sum to the header total",
                ..
            })
        ));
    }

    #[test]
    fn oversized_segment_is_a_typed_error_not_a_panic() {
        let mut out = Vec::new();
        let before = out.len();
        let err = write_segment(&mut out, 1 << 20, 8, &tv("01")).expect_err("K overflows u16");
        assert!(matches!(
            err,
            FrameError::SegmentTooLarge {
                what: "block size K",
                ..
            }
        ));
        // Nothing was appended on the error path.
        assert_eq!(out.len(), before);
        let err =
            write_segment(&mut out, 8, usize::MAX, &tv("01")).expect_err("source overflows u32");
        assert!(matches!(
            err,
            FrameError::SegmentTooLarge {
                what: "segment source trits",
                ..
            }
        ));
        assert_eq!(out.len(), before);
    }

    /// Regression: a tiny file whose header claims `u32::MAX` segments
    /// must be rejected *before* `Vec::with_capacity(u32::MAX)`.
    #[test]
    fn segment_count_bomb_is_rejected_before_allocation() {
        let mut out = Vec::new();
        write_header(&mut out, [1, 2, 5, 5, 5, 5, 5, 5, 4], u32::MAX, 0);
        assert_eq!(out.len(), HEADER_BYTES);
        // Default limits: the claimed count exceeds max_segments.
        assert!(matches!(
            verdict(&out),
            Some(FrameError::LimitExceeded {
                what: "segment count",
                ..
            })
        ));
        // Even unlimited: the count can't fit in the remaining bytes.
        assert!(matches!(
            strict_error(&out, &DecodeLimits::unlimited()),
            Some(FrameError::Truncated { .. })
        ));
        // Salvage refuses the bomb claim under default limits too.
        assert!(matches!(
            scan(&out, &DecodeLimits::default()),
            Err(FrameError::LimitExceeded { .. })
        ));
    }

    /// Regression: a CRC-valid segment claiming vastly more source trits
    /// than its payload could encode must be rejected before the decoder
    /// allocates the claimed output.
    #[test]
    fn expansion_bomb_segment_is_rejected() {
        let mut out = Vec::new();
        write_header(&mut out, [1, 2, 5, 5, 5, 5, 5, 5, 4], 1, 1 << 20);
        // Hand-build a segment header claiming 2^20 source trits from a
        // 2-trit payload at K = 8 (2 * 8 = 16 < 2^20), with a valid CRC.
        let mut header = [0u8; 12];
        header[0..2].copy_from_slice(&8u16.to_le_bytes());
        header[4..8].copy_from_slice(&(1u32 << 20).to_le_bytes());
        header[8..12].copy_from_slice(&2u32.to_le_bytes());
        let payload = [0b0001u8]; // two trits: 1, 0
        let mut seg = Vec::new();
        seg.extend_from_slice(&header);
        let crc = {
            let mut all = header.to_vec();
            all.extend_from_slice(&payload);
            crc32(&all)
        };
        seg.extend_from_slice(&crc.to_le_bytes());
        seg.extend_from_slice(&payload);
        out.extend_from_slice(&seg);
        assert!(matches!(
            verdict(&out),
            Some(FrameError::Malformed {
                what: "segment claims more source trits than its payload can encode",
                ..
            })
        ));
    }

    #[test]
    fn per_segment_trit_limit_is_enforced() {
        let bytes = sample_frame();
        let tight = DecodeLimits {
            max_segment_trits: 4,
            ..DecodeLimits::default()
        };
        assert!(matches!(
            strict_error(&bytes, &tight),
            Some(FrameError::LimitExceeded {
                what: "segment source trits",
                ..
            })
        ));
    }

    #[test]
    fn total_alloc_limit_is_enforced() {
        let bytes = sample_frame();
        let tight = DecodeLimits {
            max_total_alloc: 8, // 32 source trits need at least 8 bytes out + scratch
            ..DecodeLimits::default()
        };
        assert!(matches!(
            strict_error(&bytes, &tight),
            Some(FrameError::LimitExceeded { .. })
        ));
        assert_eq!(strict_error(&bytes, &DecodeLimits::unlimited()), None);
    }

    #[test]
    fn salvage_scan_on_clean_frame_is_all_intact() {
        let bytes = sample_frame();
        let scan = scan(&bytes, &DecodeLimits::default()).expect("clean frame scans");
        assert_eq!(scan.source_len(), 32);
        assert_eq!(scan.claimed_segments(), 2);
        assert_eq!(scan.entries().len(), 2);
        assert_eq!(scan.intact_count(), 2);
        // Entries tile the body exactly.
        assert_eq!(scan.entries()[0].byte_range().start, HEADER_BYTES);
        assert_eq!(
            scan.entries()[0].byte_range().end,
            scan.entries()[1].byte_range().start
        );
        assert_eq!(scan.entries()[1].byte_range().end, bytes.len());
    }

    #[test]
    fn salvage_scan_resyncs_past_a_corrupt_payload() {
        let mut bytes = sample_frame();
        // Corrupt the first segment's payload (just past its header).
        bytes[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0xFF;
        let scan = scan(&bytes, &DecodeLimits::default()).expect("scan survives");
        assert_eq!(scan.entries().len(), 2);
        assert!(matches!(
            &scan.entries()[0],
            PlanEntry::Damaged {
                error: FrameError::BadCrc { .. },
                claimed_source_trits: Some(16),
                ..
            }
        ));
        assert!(
            matches!(&scan.entries()[1], PlanEntry::Data { seg, .. } if seg.source_trits == 16)
        );
        // The damaged range covers exactly the first segment's bytes.
        let clean = sample_frame();
        assert_eq!(
            scan.entries()[0].byte_range(),
            plan::build(&clean, &DecodeLimits::default(), BuildMode::Full)
                .expect("clean")
                .entries()[0]
                .byte_range()
        );
    }

    #[test]
    fn salvage_scan_handles_truncated_tail() {
        let bytes = sample_frame();
        let cut = bytes.len() - 2;
        let scan = scan(&bytes[..cut], &DecodeLimits::default()).expect("scan survives");
        assert_eq!(scan.intact_count(), 1);
        let last = scan.entries().last().expect("has entries");
        assert!(matches!(
            last,
            PlanEntry::Damaged {
                error: FrameError::Truncated { .. },
                ..
            }
        ));
        assert_eq!(last.byte_range().end, cut);
    }

    #[test]
    fn errors_display() {
        for e in [
            FrameError::BadMagic,
            FrameError::UnsupportedVersion { found: 9 },
            FrameError::Truncated { offset: 3 },
            FrameError::BadHeaderCrc,
            FrameError::BadCrc { segment: 1 },
            FrameError::BadTable,
            FrameError::Malformed {
                segment: 0,
                what: "x",
            },
            FrameError::LimitExceeded {
                what: "x",
                requested: 2,
                limit: 1,
            },
            FrameError::SegmentTooLarge { what: "x", len: 5 },
        ] {
            assert!(!e.to_string().is_empty());
        }
        for r in [
            DamageReason::BadCrc,
            DamageReason::Truncated,
            DamageReason::Malformed("x"),
            DamageReason::LimitExceeded("x"),
            DamageReason::WorkerPanicked,
            DamageReason::HeaderMismatch("x"),
            DamageReason::Cancelled,
            DamageReason::RepairedBy {
                group: 1,
                parity_used: 2,
            },
        ] {
            assert!(!r.to_string().is_empty());
        }
        assert!(DamageReason::RepairedBy {
            group: 0,
            parity_used: 1
        }
        .is_repaired());
        assert!(!DamageReason::BadCrc.is_repaired());
    }

    // ------------------------------------------------------------------
    // Frame v3: parity groups.
    // ------------------------------------------------------------------

    /// A v3 frame: the two `sample_frame` data segments in one parity
    /// group (`g = 2, r = 1`) with a real GF(256) parity shard.
    fn sample_frame_v3() -> Vec<u8> {
        let payload_a = tv("0110X01");
        let payload_b = tv("111000X");
        let mut seg_a = Vec::new();
        write_segment(&mut seg_a, 8, 16, &payload_a).expect("segment fits");
        let mut seg_b = Vec::new();
        write_segment(&mut seg_b, 8, 16, &payload_b).expect("segment fits");
        let coder = crate::engine::ecc::ParityCoder::new(2, 1).expect("valid geometry");
        let shard_len = seg_a.len().max(seg_b.len());
        let parity = coder.encode(&[&seg_a, &seg_b], shard_len);
        let mut out = Vec::new();
        write_header_v3(&mut out, [1, 2, 5, 5, 5, 5, 5, 5, 4], 2, 32, 2, 1);
        out.extend_from_slice(&seg_a);
        out.extend_from_slice(&seg_b);
        write_parity_segment(&mut out, 0, 0, &parity[0]).expect("parity fits");
        out
    }

    #[test]
    fn v3_roundtrip_parse() {
        let bytes = sample_frame_v3();
        assert!(is_frame(&bytes));
        let plan = strict_plan(&bytes);
        assert_eq!(plan.source_len(), 32);
        assert_eq!((plan.parity_g(), plan.parity_r()), (2, 1));
        assert_eq!(plan.groups(), 1);
        let segments = data_segments(&plan);
        assert_eq!(segments.len(), 2);
        let parity = parity_shards(&plan);
        assert_eq!(parity.len(), 1);
        assert_eq!(parity[0].group, 0);
        assert_eq!(parity[0].pindex, 0);
        // Data segments are byte-identical to their v2 form: same bytes
        // parse at the v2 offsets of a v2 header.
        let v2 = sample_frame();
        assert_eq!(
            &bytes[HEADER_BYTES_V3..HEADER_BYTES_V3 + (v2.len() - HEADER_BYTES)],
            &v2[HEADER_BYTES..]
        );
        let a = unpack_payload(&segments[0], 0).expect("payload unpacks");
        assert_eq!(a.to_string(), "0110X01");
    }

    #[test]
    fn v3_zero_parity_is_v2_compatible_apart_from_the_header() {
        let payload_a = tv("0110X01");
        let payload_b = tv("111000X");
        let mut bytes = Vec::new();
        write_header_v3(&mut bytes, [1, 2, 5, 5, 5, 5, 5, 5, 4], 2, 32, 0, 0);
        write_segment(&mut bytes, 8, 16, &payload_a).expect("segment fits");
        write_segment(&mut bytes, 8, 16, &payload_b).expect("segment fits");
        let plan = strict_plan(&bytes);
        assert!(parity_shards(&plan).is_empty());
        assert_eq!(plan.groups(), 0);
        // Body is byte-identical to the v2 frame's body.
        let v2 = sample_frame();
        assert_eq!(&bytes[HEADER_BYTES_V3..], &v2[HEADER_BYTES..]);
    }

    #[test]
    fn v3_bad_parity_geometry_is_rejected() {
        let mut bytes = Vec::new();
        // g + r = 400 > 255: beyond the GF(256) shard ceiling.
        write_header_v3(&mut bytes, [1, 2, 5, 5, 5, 5, 5, 5, 4], 0, 0, 200, 200);
        assert!(matches!(
            verdict(&bytes),
            Some(FrameError::Malformed { what, .. })
                if what.contains("shard ceiling")
        ));
        // Parity shards without a group size make no sense.
        let mut bytes = Vec::new();
        write_header_v3(&mut bytes, [1, 2, 5, 5, 5, 5, 5, 5, 4], 0, 0, 0, 3);
        assert!(matches!(
            verdict(&bytes),
            Some(FrameError::Malformed { what, .. })
                if what.contains("without a group size")
        ));
    }

    #[test]
    fn v3_parity_out_of_order_is_rejected() {
        let bytes = sample_frame_v3();
        let mut swapped = Vec::new();
        // Re-emit the parity shard with a wrong group label.
        let shard = parity_shards(&strict_plan(&bytes))[0].payload.to_vec();
        swapped.extend_from_slice(&bytes[..bytes.len() - (SEGMENT_HEADER_BYTES + shard.len())]);
        write_parity_segment(&mut swapped, 7, 0, &shard).expect("fits");
        assert!(matches!(
            verdict(&swapped),
            Some(FrameError::Malformed { what, .. })
                if what.contains("order")
        ));
    }

    #[test]
    fn v3_parity_shard_bomb_is_rejected_before_allocation() {
        let bytes = sample_frame_v3();
        let shard_len = parity_shards(&strict_plan(&bytes))[0].payload.len();
        let parity_start = bytes.len() - (SEGMENT_HEADER_BYTES + shard_len);
        let mut bomb = bytes[..parity_start].to_vec();
        // Forge a parity header claiming a ~4 GiB shard. The limit check
        // must fire before any allocation and before the CRC read.
        let mut header = [0u8; 12];
        header[0..2].copy_from_slice(&PARITY_MARKER.to_le_bytes());
        header[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        bomb.extend_from_slice(&header);
        bomb.extend_from_slice(&[0u8; 4]); // bogus CRC, never reached
        let limits = DecodeLimits::default();
        assert!(matches!(
            strict_error(&bomb, &limits),
            Some(FrameError::LimitExceeded {
                what: "parity shard bytes",
                ..
            })
        ));
        // The scan degrades it to damage rather than failing the file.
        let scan = scan(&bomb, &limits).expect("scan survives");
        assert!(scan
            .entries()
            .iter()
            .any(|e| matches!(e, PlanEntry::Damaged { .. })));
    }

    #[test]
    fn v3_scan_classifies_parity_entries() {
        let bytes = sample_frame_v3();
        let scan = scan(&bytes, &DecodeLimits::default()).expect("clean v3 scans");
        assert_eq!((scan.parity_g(), scan.parity_r()), (2, 1));
        assert_eq!(scan.groups(), 1);
        assert_eq!(scan.claimed_parity_segments(), 1);
        assert_eq!(scan.entries().len(), 3);
        assert_eq!(scan.intact_count(), 2);
        assert!(matches!(
            &scan.entries()[2],
            PlanEntry::Parity { par, .. } if par.group == 0 && par.pindex == 0
        ));
        assert_eq!(scan.entries()[2].byte_range().end, bytes.len());
    }

    #[test]
    fn v3_scan_degrades_corrupt_parity_to_damage() {
        let mut bytes = sample_frame_v3();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let scan = scan(&bytes, &DecodeLimits::default()).expect("scan survives");
        assert_eq!(scan.intact_count(), 2);
        let last_entry = scan.entries().last().expect("has entries");
        assert!(matches!(
            last_entry,
            PlanEntry::Damaged {
                claimed_source_trits: Some(0),
                ..
            }
        ));
    }

    #[test]
    fn group_helpers_interleave() {
        // 7 data segments, g = 3 → G = ceil(7/3) = 3 groups.
        assert_eq!(group_count(7, 3), 3);
        assert_eq!(group_count(0, 3), 0);
        assert_eq!(group_count(7, 0), 0);
        let groups = 3usize;
        for i in 0..7 {
            assert_eq!(group_of(i, groups), i % 3);
        }
        assert_eq!(group_members(0, 7, groups).collect::<Vec<_>>(), [0, 3, 6]);
        assert_eq!(group_members(1, 7, groups).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(group_members(2, 7, groups).collect::<Vec<_>>(), [2, 5]);
        // Every segment is in exactly one group, and group sizes never
        // exceed g.
        for g in 1u8..=5 {
            for n in 0..40usize {
                let gc = group_count(n, g);
                let mut seen = vec![false; n];
                for q in 0..gc {
                    let members: Vec<usize> = group_members(q, n, gc).collect();
                    assert!(members.len() <= g as usize, "n={n} g={g} q={q}");
                    for m in members {
                        assert!(!seen[m]);
                        seen[m] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "n={n} g={g}");
            }
        }
    }

    #[test]
    fn resync_probe_cap_is_a_typed_limit_error() {
        // Regression: the probe budget used to be a hard-coded constant;
        // it is now `DecodeLimits::max_resync_probes` with a typed error.
        let mut bytes = sample_frame();
        bytes[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0xFF;
        // Default limits: plenty of probes, the scan resyncs.
        assert!(scan(&bytes, &DecodeLimits::default()).is_ok());
        // A 1-probe budget cannot reach the next segment boundary.
        let tight = DecodeLimits {
            max_resync_probes: 1,
            ..DecodeLimits::default()
        };
        assert!(matches!(
            scan(&bytes, &tight),
            Err(FrameError::LimitExceeded {
                what: "resync probes",
                limit: 1,
                ..
            })
        ));
        // Unlimited really is unlimited.
        assert!(scan(&bytes, &DecodeLimits::unlimited()).is_ok());
    }

    /// `find_resync`'s reference: the first position after `at` where the
    /// plain parsers, CRCing every claimed payload in full, accept a
    /// segment.
    fn resync_reference(bytes: &[u8], at: usize, v3: bool) -> usize {
        let limits = DecodeLimits::default();
        (at + 1..bytes.len().saturating_sub(SEGMENT_HEADER_BYTES - 1))
            .find(|&p| {
                if v3 && bytes.get(p..p + 2) == Some(&PARITY_MARKER.to_le_bytes()) {
                    parity_at(bytes, p, 0, &limits, None).is_ok()
                } else {
                    segment_at(bytes, p, 0, &limits, None).is_ok()
                }
            })
            .unwrap_or(bytes.len())
    }

    #[test]
    fn indexed_resync_matches_the_direct_probe_from_every_start() {
        let stream = tv(&"0X0X01X001X0101X111111110000X1111X0110XX".repeat(8));
        let mut state = 0x5EED_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for (g, r) in [(0u8, 0u8), (2, 1)] {
            let engine = crate::engine::Engine::builder()
                .threads(1)
                .segment_bits(64)
                .parity(g, r)
                .build();
            let clean = engine.encode_frame(8, &stream).expect("valid K");
            let head = parse_file_header(&clean, &DecodeLimits::default()).expect("header");
            let v3 = head.version == VERSION_V3;
            let body = head.header_bytes()..clean.len();
            for round in 0..12 {
                let mut bytes = clean.clone();
                // Flip a few bytes, then copy a run of real segment bytes
                // (headers with real payload claims, sometimes a whole
                // CRC-valid segment) to a random body offset.
                for _ in 0..1 + round % 3 {
                    let i = body.start + next(body.len());
                    bytes[i] ^= 1 + next(255) as u8;
                }
                let len = 16 + next(96);
                let from = body.start + next(body.len() - len);
                let to = body.start + next(body.len() - len);
                bytes.copy_within(from..from + len, to);
                let mut index = PrefixCrc::default();
                for at in body.clone() {
                    let found = find_resync(
                        &bytes,
                        at + 1,
                        true,
                        v3,
                        &DecodeLimits::default(),
                        &mut 0,
                        &mut index,
                    )
                    .expect("within the probe budget");
                    assert_eq!(
                        found,
                        Resync::At(resync_reference(&bytes, at, v3)),
                        "g {g} round {round} at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_shard_bytes_bounds_parity_shards() {
        let limits = DecodeLimits::default();
        assert_eq!(
            limits.max_shard_bytes(),
            trit_alloc_bytes(limits.max_segment_trits) + SEGMENT_HEADER_BYTES
        );
        assert!(DecodeLimits::unlimited().max_shard_bytes() >= limits.max_shard_bytes());
    }
}
