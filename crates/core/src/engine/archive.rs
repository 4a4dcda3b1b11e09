//! `9CA` — a durable, seekable, deduplicated archive of `9CSF` frames.
//!
//! A `9CA` archive is **two files**:
//!
//! - `<name>.9ca` — an append-only *store* of segment blobs. A blob is
//!   the exact wire bytes of one `9CSF` segment (16-byte header +
//!   payload, data or parity alike), so every blob carries its own
//!   CRC-32 and can be verified — and, via its frame's parity group,
//!   repaired — without any other context. The store opens with a
//!   12-byte header (`9CA1` magic, version, CRC).
//! - `<name>.9ca.idx` — the current *epoch index*: for every archived
//!   frame, its verbatim `9CSF` file header plus one 24-byte record per
//!   segment (store offset, blob length, source trits, content digest),
//!   all covered by a trailing CRC-32.
//!
//! **Crash safety** is the index's job. An append first writes new
//! blobs past the committed store length and `fsync`s them, then writes
//! the next epoch's index to a temp file, `fsync`s it, and atomically
//! renames it over `<name>.9ca.idx`. A process killed at *any* byte
//! boundary leaves either the old index (whose records never reference
//! the torn tail — the next append truncates it away) or the new one
//! (whose data was durable before the rename). The [`faultpoint`] site
//! `arc` with action `kill` makes that claim testable at every single
//! boundary.
//!
//! **Dedup** is content-addressed: blobs are keyed by an FNV-1a 64
//! digest and a hit is confirmed by byte comparison against the stored
//! blob (never by digest alone), so identical segments across frames —
//! test sets share massive all-X / all-0 runs — are stored once and
//! refcounted by the index records that point at them.
//!
//! **Random access**: each frame record carries per-segment source-trit
//! extents, so [`Archive::decode_range`] reads only the overlapping
//! blobs, reassembles them into a minimal valid v2 frame and decodes it
//! through the engine's ordinary [`FramePlan`](super::FramePlan) path —
//! O(segments-touched), not O(archive).
//!
//! Extraction, range decode and scrub hold every stored blob to one
//! check, `frame::is_whole_segment`: the blob parses to exactly its own
//! length, CRC and limits included. Bit-rot detection and in-place
//! repair live in the [`scrub`](super::scrub) sibling module.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::faultpoint;
use super::frame::{self, FrameError};
use super::plan::{self, PlanEntry};
use super::Engine;
use crate::decode::DecodeError;
use ninec_testdata::trit::TritVec;

/// Magic bytes opening the `9CA` data store.
pub const DATA_MAGIC: [u8; 4] = *b"9CA1";
/// Magic bytes opening the `9CA` epoch index.
pub const INDEX_MAGIC: [u8; 4] = *b"9CAI";
/// Current archive format version (store and index).
pub const ARCHIVE_VERSION: u8 = 1;
/// Data-store header size: magic, version, 3 reserved bytes, CRC-32
/// over the first 8 bytes.
pub const DATA_HEADER_BYTES: usize = 12;
/// Suffix appended to the store path to name the epoch index.
pub const INDEX_SUFFIX: &str = ".idx";
/// One per-segment index record: store offset (u64), blob length (u32),
/// source trits (u32, zero for parity), content digest (u64).
const RECORD_BYTES: usize = 24;
/// Index bytes before the per-frame records: magic, version, reserved,
/// epoch, committed length, dedup hits, frame count.
const INDEX_FIXED_BYTES: usize = 4 + 1 + 3 + 8 + 8 + 8 + 4;
/// Smallest possible per-frame index entry (header length byte, v2
/// header, two counts) — the pre-allocation bomb bound.
const MIN_FRAME_ENTRY_BYTES: usize = 1 + frame::HEADER_BYTES + 4 + 4;

/// `true` if `bytes` starts with the `9CA1` store magic (cheap format
/// sniff, the archive sibling of [`frame::is_frame`]).
#[must_use]
pub fn is_archive(bytes: &[u8]) -> bool {
    bytes.len() >= DATA_MAGIC.len() && bytes[..DATA_MAGIC.len()] == DATA_MAGIC
}

/// FNV-1a 64 content digest keying the dedup table. Collisions are
/// harmless — every digest hit is confirmed by byte comparison before a
/// blob is shared.
#[must_use]
pub fn blob_digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Typed error for every archive operation. Never panics; hostile
/// stores and indexes are rejected with the same bomb-checked
/// discipline as frame parsing.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArchiveError {
    /// An I/O operation on the store or index failed.
    Io {
        /// What the archive was doing.
        what: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A frame being appended (or a header held by the index) is
    /// malformed, corrupt, or over a [`super::DecodeLimits`] ceiling.
    Frame(FrameError),
    /// The store file does not start with the `9CA1` magic + valid
    /// header CRC — it is not an archive.
    NotAnArchive {
        /// The leading store bytes actually found (up to 4).
        found: Vec<u8>,
    },
    /// The epoch index is structurally invalid (bad magic/CRC, records
    /// out of bounds, counts disagreeing with the stored frame header).
    BadIndex {
        /// What was wrong.
        what: &'static str,
    },
    /// An append was killed by an armed `arc` fault point after exactly
    /// `written` bytes of new store data — the previous epoch remains
    /// committed and fully readable.
    TornAppend {
        /// Bytes of this append that reached the store before the kill.
        written: u64,
    },
    /// The requested frame index is beyond the archive.
    FrameOutOfRange {
        /// Requested frame.
        frame: usize,
        /// Frames in the current epoch.
        frames: usize,
    },
    /// A requested trit range does not fit inside the frame.
    RangeOutOfBounds {
        /// Requested start trit.
        start: usize,
        /// Requested length in trits.
        len: usize,
        /// The frame's source length.
        source_len: usize,
    },
    /// A stored blob failed its CRC re-verification — bit rot. Run the
    /// scrubber to repair it from parity.
    Rotted {
        /// Frame the rotted reference belongs to.
        frame: usize,
        /// Segment entry index within the frame (data, or `n + j` for
        /// parity shard `j`).
        segment: usize,
    },
    /// Decoding a reassembled range failed.
    Decode(DecodeError),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io { what, source } => write!(f, "archive i/o ({what}): {source}"),
            ArchiveError::Frame(e) => write!(f, "archive frame: {e}"),
            ArchiveError::NotAnArchive { found } => {
                write!(f, "not a 9CA archive (leading bytes {found:02x?})")
            }
            ArchiveError::BadIndex { what } => write!(f, "bad archive index: {what}"),
            ArchiveError::TornAppend { written } => {
                write!(
                    f,
                    "append killed after {written} bytes (previous epoch intact)"
                )
            }
            ArchiveError::FrameOutOfRange { frame, frames } => {
                write!(f, "frame {frame} out of range (archive holds {frames})")
            }
            ArchiveError::RangeOutOfBounds {
                start,
                len,
                source_len,
            } => write!(
                f,
                "trit range {start}+{len} outside the frame's {source_len} source trits"
            ),
            ArchiveError::Rotted { frame, segment } => write!(
                f,
                "stored segment {segment} of frame {frame} fails its CRC (bit rot; run scrub)"
            ),
            ArchiveError::Decode(e) => write!(f, "archive range decode: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArchiveError::Io { source, .. } => Some(source),
            ArchiveError::Frame(e) => Some(e),
            ArchiveError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ArchiveError {
    fn from(e: FrameError) -> Self {
        ArchiveError::Frame(e)
    }
}

/// Curried I/O error constructor: `.map_err(io("opening store"))`.
fn io(what: &'static str) -> impl FnOnce(std::io::Error) -> ArchiveError {
    move |source| ArchiveError::Io { what, source }
}

/// One stored segment reference: where the blob lives, how big it is,
/// how many source trits it decodes to (zero for parity shards), and
/// its content digest (the dedup key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlobRecord {
    pub(crate) offset: u64,
    pub(crate) len: u32,
    pub(crate) source_trits: u32,
    pub(crate) digest: u64,
}

/// One archived frame in the epoch index: the verbatim `9CSF` file
/// header plus its data and parity blob records in wire order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FrameRecord {
    /// The original frame's file header bytes (31 or 33), reused
    /// verbatim on extract so extraction is byte-exact.
    pub(crate) header: Vec<u8>,
    /// Data segment records, in stream order.
    pub(crate) segs: Vec<BlobRecord>,
    /// Parity segment records, in `(group, pindex)` order.
    pub(crate) parity: Vec<BlobRecord>,
    /// Source-trit prefix sums: `trit_starts[i]` is the first trit of
    /// segment `i`; the last entry is the frame's source length.
    pub(crate) trit_starts: Vec<u64>,
}

impl FrameRecord {
    /// The frame's total source trits.
    pub(crate) fn source_len(&self) -> u64 {
        self.trit_starts.last().copied().unwrap_or(0)
    }
}

/// A decoded epoch index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Index {
    pub(crate) epoch: u64,
    /// Store bytes this epoch commits to; anything past it is torn
    /// tail from a crashed append and is ignored (and reclaimed by the
    /// next successful append).
    pub(crate) committed_len: u64,
    /// Cumulative dedup hits over the archive's lifetime.
    pub(crate) dedup_hits: u64,
    pub(crate) frames: Vec<FrameRecord>,
}

impl Index {
    fn empty() -> Self {
        Index {
            epoch: 0,
            committed_len: DATA_HEADER_BYTES as u64,
            dedup_hits: 0,
            frames: Vec::new(),
        }
    }

    /// Serializes the index, appending the trailing CRC-32.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&INDEX_MAGIC);
        out.push(ARCHIVE_VERSION);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.committed_len.to_le_bytes());
        out.extend_from_slice(&self.dedup_hits.to_le_bytes());
        out.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        for fr in &self.frames {
            out.push(fr.header.len() as u8);
            out.extend_from_slice(&fr.header);
            out.extend_from_slice(&(fr.segs.len() as u32).to_le_bytes());
            out.extend_from_slice(&(fr.parity.len() as u32).to_le_bytes());
            for b in fr.segs.iter().chain(fr.parity.iter()) {
                out.extend_from_slice(&b.offset.to_le_bytes());
                out.extend_from_slice(&b.len.to_le_bytes());
                out.extend_from_slice(&b.source_trits.to_le_bytes());
                out.extend_from_slice(&b.digest.to_le_bytes());
            }
        }
        let crc = frame::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and fully cross-checks an index. Every count is bounded
    /// by the bytes actually present *before* any allocation, the
    /// trailing CRC must match, and each frame's record counts and trit
    /// totals must agree with its stored (CRC-verified) `9CSF` header —
    /// a forged-but-CRC'd index still cannot reference out-of-bounds
    /// store ranges or claim bomb geometries.
    pub(crate) fn decode(
        bytes: &[u8],
        limits: &frame::DecodeLimits,
    ) -> Result<Index, ArchiveError> {
        if bytes.len() > limits.max_index_bytes {
            return Err(FrameError::LimitExceeded {
                what: "archive index bytes",
                requested: bytes.len(),
                limit: limits.max_index_bytes,
            }
            .into());
        }
        if bytes.len() < INDEX_FIXED_BYTES + 4 {
            return Err(ArchiveError::BadIndex {
                what: "index shorter than its fixed header",
            });
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if frame::crc32(body) != stored {
            return Err(ArchiveError::BadIndex {
                what: "index CRC mismatch",
            });
        }
        if body[..4] != INDEX_MAGIC {
            return Err(ArchiveError::BadIndex {
                what: "missing 9CAI magic",
            });
        }
        if body[4] != ARCHIVE_VERSION {
            return Err(ArchiveError::BadIndex {
                what: "unsupported index version",
            });
        }
        let mut cur = Cursor { body, at: 8 };
        let epoch = cur.u64("epoch")?;
        let committed_len = cur.u64("committed length")?;
        let dedup_hits = cur.u64("dedup hits")?;
        let frame_count = cur.u32("frame count")? as usize;
        if frame_count > cur.remaining() / MIN_FRAME_ENTRY_BYTES {
            return Err(ArchiveError::BadIndex {
                what: "frame count exceeds the bytes present",
            });
        }
        if committed_len < DATA_HEADER_BYTES as u64 {
            return Err(ArchiveError::BadIndex {
                what: "committed length smaller than the store header",
            });
        }
        let mut frames = Vec::with_capacity(frame_count);
        for _ in 0..frame_count {
            let header_len = cur.u8("frame header length")? as usize;
            if header_len != frame::HEADER_BYTES && header_len != frame::HEADER_BYTES_V3 {
                return Err(ArchiveError::BadIndex {
                    what: "frame header length is neither v2 nor v3",
                });
            }
            let header = cur.take(header_len, "frame header bytes")?.to_vec();
            let head = frame::parse_file_header(&header, limits)?;
            let seg_count = cur.u32("segment count")? as usize;
            let parity_count = cur.u32("parity count")? as usize;
            if seg_count != head.segments || parity_count != head.parity_segments {
                return Err(ArchiveError::BadIndex {
                    what: "record counts disagree with the frame header",
                });
            }
            let total = seg_count
                .checked_add(parity_count)
                .filter(|&n| n <= cur.remaining() / RECORD_BYTES)
                .ok_or(ArchiveError::BadIndex {
                    what: "record count exceeds the bytes present",
                })?;
            let mut records = Vec::with_capacity(total);
            for _ in 0..total {
                let offset = cur.u64("record offset")?;
                let len = cur.u32("record length")?;
                let source_trits = cur.u32("record source trits")?;
                let digest = cur.u64("record digest")?;
                let end = offset.checked_add(u64::from(len));
                if offset < DATA_HEADER_BYTES as u64 || end.is_none_or(|e| e > committed_len) {
                    return Err(ArchiveError::BadIndex {
                        what: "record outside the committed store",
                    });
                }
                if (len as usize) < frame::SEGMENT_HEADER_BYTES {
                    return Err(ArchiveError::BadIndex {
                        what: "record smaller than a segment header",
                    });
                }
                records.push(BlobRecord {
                    offset,
                    len,
                    source_trits,
                    digest,
                });
            }
            let parity = records.split_off(seg_count);
            let segs = records;
            let mut trit_starts = Vec::with_capacity(seg_count + 1);
            let mut acc = 0u64;
            trit_starts.push(0);
            for b in &segs {
                acc += u64::from(b.source_trits);
                trit_starts.push(acc);
            }
            if acc != head.source_len as u64 || parity.iter().any(|b| b.source_trits != 0) {
                return Err(ArchiveError::BadIndex {
                    what: "record trit totals disagree with the frame header",
                });
            }
            frames.push(FrameRecord {
                header,
                segs,
                parity,
                trit_starts,
            });
        }
        if cur.remaining() != 0 {
            return Err(ArchiveError::BadIndex {
                what: "trailing bytes after the last record",
            });
        }
        Ok(Index {
            epoch,
            committed_len,
            dedup_hits,
            frames,
        })
    }
}

/// Bounds-checked little-endian reader over the index body.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.body.len().saturating_sub(self.at)
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ArchiveError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or(ArchiveError::BadIndex { what })?;
        let s = &self.body[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ArchiveError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ArchiveError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ArchiveError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }
}

/// Receipt for one successful [`Archive::append_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Index of the appended frame.
    pub frame: usize,
    /// Segment blobs the frame carries (data + parity).
    pub segments: usize,
    /// Blobs satisfied by dedup instead of new store bytes.
    pub dedup_hits: u64,
    /// New store bytes this append wrote.
    pub new_bytes: u64,
}

/// Shape summary for `ninec info` and the bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Frames in the current epoch.
    pub frames: usize,
    /// Data segment references across all frames.
    pub data_segments: usize,
    /// Parity segment references across all frames.
    pub parity_segments: usize,
    /// Unique blobs in the store.
    pub stored_blobs: usize,
    /// Store payload bytes the epoch commits (excluding the store header).
    pub stored_bytes: u64,
    /// Bytes the referenced blobs would occupy without dedup.
    pub logical_bytes: u64,
    /// Cumulative dedup hits.
    pub dedup_hits: u64,
    /// Current epoch number.
    pub epoch: u64,
}

impl ArchiveStats {
    /// Logical over stored bytes — 1.0 means no sharing.
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// Per-frame shape for `ninec info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Data segments.
    pub segments: usize,
    /// Parity segments.
    pub parity_segments: usize,
    /// Source trits.
    pub source_len: u64,
    /// Frame version (2 or 3).
    pub version: u8,
    /// Parity geometry `(g, r)`; `(0, 0)` for v2.
    pub parity: (u8, u8),
}

/// An open `9CA` archive (see the module docs for the on-disk layout
/// and crash-safety contract).
#[derive(Debug)]
pub struct Archive {
    pub(crate) data_path: PathBuf,
    pub(crate) index_path: PathBuf,
    pub(crate) engine: Engine,
    pub(crate) index: Index,
    /// Dedup candidates: digest → stored `(offset, len)` blobs.
    dedup: HashMap<u64, Vec<(u64, u32)>>,
}

/// `<store path> + ".idx"`.
fn index_path_for(data_path: &Path) -> PathBuf {
    let mut s = data_path.as_os_str().to_os_string();
    s.push(INDEX_SUFFIX);
    PathBuf::from(s)
}

impl Archive {
    /// Creates a fresh archive at `path` (truncating any existing one)
    /// and commits epoch 0.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Io`] on any filesystem failure.
    pub fn create(path: impl AsRef<Path>, engine: &Engine) -> Result<Self, ArchiveError> {
        let data_path = path.as_ref().to_path_buf();
        let index_path = index_path_for(&data_path);
        let mut header = Vec::with_capacity(DATA_HEADER_BYTES);
        header.extend_from_slice(&DATA_MAGIC);
        header.push(ARCHIVE_VERSION);
        header.extend_from_slice(&[0u8; 3]);
        header.extend_from_slice(&frame::crc32(&header[..8]).to_le_bytes());
        let mut f = File::create(&data_path).map_err(io("creating store"))?;
        f.write_all(&header).map_err(io("writing store header"))?;
        f.sync_all().map_err(io("syncing store header"))?;
        let archive = Archive {
            data_path,
            index_path,
            engine: engine.clone(),
            index: Index::empty(),
            dedup: HashMap::new(),
        };
        archive.commit_index(&archive.index)?;
        Ok(archive)
    }

    /// Opens an existing archive at `path`, validating the store header
    /// and the epoch index (CRC, bounds, cross-checks) under the
    /// engine's [`super::DecodeLimits`].
    ///
    /// # Errors
    ///
    /// [`ArchiveError::NotAnArchive`] when the store lacks the `9CA1`
    /// header; [`ArchiveError::BadIndex`] / [`ArchiveError::Frame`] for
    /// a corrupt or bombed index; [`ArchiveError::Io`] otherwise.
    pub fn open(path: impl AsRef<Path>, engine: &Engine) -> Result<Self, ArchiveError> {
        let data_path = path.as_ref().to_path_buf();
        let index_path = index_path_for(&data_path);
        let mut f = File::open(&data_path).map_err(io("opening store"))?;
        let mut header = [0u8; DATA_HEADER_BYTES];
        let mut got = 0usize;
        while got < header.len() {
            match f
                .read(&mut header[got..])
                .map_err(io("reading store header"))?
            {
                0 => break,
                n => got += n,
            }
        }
        let stored_crc = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if got < DATA_HEADER_BYTES
            || header[..4] != DATA_MAGIC
            || header[4] != ARCHIVE_VERSION
            || frame::crc32(&header[..8]) != stored_crc
        {
            return Err(ArchiveError::NotAnArchive {
                found: header[..got.min(4)].to_vec(),
            });
        }
        let meta = std::fs::metadata(&index_path).map_err(io("reading index metadata"))?;
        let limits = engine.limits;
        if meta.len() > limits.max_index_bytes as u64 {
            return Err(FrameError::LimitExceeded {
                what: "archive index bytes",
                requested: usize::try_from(meta.len()).unwrap_or(usize::MAX),
                limit: limits.max_index_bytes,
            }
            .into());
        }
        let bytes = std::fs::read(&index_path).map_err(io("reading index"))?;
        let index = Index::decode(&bytes, &limits)?;
        let store_len = f.metadata().map_err(io("reading store metadata"))?.len();
        if store_len < index.committed_len {
            return Err(ArchiveError::BadIndex {
                what: "store shorter than its committed epoch",
            });
        }
        let mut dedup: HashMap<u64, Vec<(u64, u32)>> = HashMap::new();
        for fr in &index.frames {
            for b in fr.segs.iter().chain(fr.parity.iter()) {
                let cands = dedup.entry(b.digest).or_default();
                if !cands.contains(&(b.offset, b.len)) {
                    cands.push((b.offset, b.len));
                }
            }
        }
        Ok(Archive {
            data_path,
            index_path,
            engine: engine.clone(),
            index,
            dedup,
        })
    }

    /// [`open`](Archive::open) if the store exists, else
    /// [`create`](Archive::create).
    ///
    /// # Errors
    ///
    /// As [`open`](Archive::open) / [`create`](Archive::create).
    pub fn open_or_create(path: impl AsRef<Path>, engine: &Engine) -> Result<Self, ArchiveError> {
        if path.as_ref().exists() {
            Archive::open(path, engine)
        } else {
            Archive::create(path, engine)
        }
    }

    /// The store path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.data_path
    }

    /// The epoch-index path (`<store>.idx`).
    #[must_use]
    pub fn index_path(&self) -> &Path {
        &self.index_path
    }

    /// Frames in the current epoch.
    #[must_use]
    pub fn frame_count(&self) -> usize {
        self.index.frames.len()
    }

    /// Current epoch number (bumped by every committed append/scrub).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.index.epoch
    }

    /// Shape of frame `i`, if it exists.
    #[must_use]
    pub fn frame_info(&self, i: usize) -> Option<FrameInfo> {
        let fr = self.index.frames.get(i)?;
        let head = frame::parse_file_header(&fr.header, &frame::DecodeLimits::unlimited()).ok()?;
        Some(FrameInfo {
            segments: fr.segs.len(),
            parity_segments: fr.parity.len(),
            source_len: fr.source_len(),
            version: head.version,
            parity: (head.parity_g, head.parity_r),
        })
    }

    /// Archive-wide shape and dedup stats.
    #[must_use]
    pub fn stats(&self) -> ArchiveStats {
        let mut unique: HashMap<u64, u32> = HashMap::new();
        let mut logical = 0u64;
        let mut data_segments = 0usize;
        let mut parity_segments = 0usize;
        for fr in &self.index.frames {
            data_segments += fr.segs.len();
            parity_segments += fr.parity.len();
            for b in fr.segs.iter().chain(fr.parity.iter()) {
                logical += u64::from(b.len);
                unique.insert(b.offset, b.len);
            }
        }
        ArchiveStats {
            frames: self.index.frames.len(),
            data_segments,
            parity_segments,
            stored_blobs: unique.len(),
            stored_bytes: self.index.committed_len - DATA_HEADER_BYTES as u64,
            logical_bytes: logical,
            dedup_hits: self.index.dedup_hits,
            epoch: self.index.epoch,
        }
    }

    /// The armed torn-append kill boundary, if any (`arc:<bytes>:kill`).
    fn kill_boundary(&self) -> Option<u64> {
        self.engine.failpoints.iter().find_map(|p| {
            (p.site == faultpoint::SITE_ARC && p.action == faultpoint::Action::Kill)
                .then(|| p.index.unwrap_or(0) as u64)
        })
    }

    /// Appends one `9CSF` frame (v2 or v3, strictly verified first),
    /// deduplicating its segment blobs against the store, and commits
    /// the next index epoch. On any failure — including a killed append
    /// — the previous epoch stays committed and fully readable.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Frame`] with strict decode's own typed error when
    /// `frame_bytes` is not a strictly valid frame within limits (nothing
    /// is committed); [`ArchiveError::TornAppend`] when an armed `arc`
    /// fault point killed the write; [`ArchiveError::Io`] otherwise.
    pub fn append_frame(&mut self, frame_bytes: &[u8]) -> Result<AppendReceipt, ArchiveError> {
        let _span = ninec_obs::span("archive_append");
        // The blob ranges and the accept/reject verdict both come from a
        // fail-fast plan: what strict decode would reject never commits.
        let plan = plan::build(frame_bytes, &self.engine.limits, plan::BuildMode::FailFast)?;
        if let Some(e) = plan.strict_error {
            return Err(e.into());
        }
        let header_bytes = if plan.version == frame::VERSION_V3 {
            frame::HEADER_BYTES_V3
        } else {
            frame::HEADER_BYTES
        };
        // A strictly valid plan is its `n` data segments, then the parity.
        let n = plan.claimed_segments;
        let mut ranges: Vec<(std::ops::Range<usize>, u32)> = Vec::with_capacity(plan.entries.len());
        for entry in &plan.entries {
            let trits = match entry {
                PlanEntry::Data { seg, .. } => {
                    u32::try_from(seg.source_trits).map_err(|_| FrameError::SegmentTooLarge {
                        what: "segment source trits",
                        len: seg.source_trits,
                    })?
                }
                _ => 0,
            };
            ranges.push((entry.byte_range(), trits));
        }
        let p = ranges.len() - n;

        // Plan dedup before touching the store: every blob resolves to
        // an existing stored range (confirmed by byte comparison, never
        // digest alone) or a new offset past the committed length.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.data_path)
            .map_err(io("opening store for append"))?;
        let mut records: Vec<BlobRecord> = Vec::with_capacity(ranges.len());
        // Blobs new to this append, by byte range in `frame_bytes`.
        let mut fresh: Vec<std::ops::Range<usize>> = Vec::new();
        let mut pending: HashMap<u64, Vec<(u64, std::ops::Range<usize>)>> = HashMap::new();
        let mut next_offset = self.index.committed_len;
        let mut dedup_hits = 0u64;
        for (range, source_trits) in &ranges {
            let blob = &frame_bytes[range.clone()];
            let digest = blob_digest(blob);
            let len = blob.len() as u32;
            let mut found: Option<u64> = None;
            for &(offset, stored_len) in self.dedup.get(&digest).into_iter().flatten() {
                if stored_len == len && read_exact_at(&mut file, offset, len)? == blob {
                    found = Some(offset);
                    break;
                }
            }
            if found.is_none() {
                // Also dedup against blobs earlier in this same append.
                for (offset, prior) in pending.get(&digest).into_iter().flatten() {
                    if frame_bytes[prior.clone()] == *blob {
                        found = Some(*offset);
                        break;
                    }
                }
            }
            let offset = match found {
                Some(offset) => {
                    dedup_hits += 1;
                    offset
                }
                None => {
                    let offset = next_offset;
                    next_offset += u64::from(len);
                    fresh.push(range.clone());
                    pending
                        .entry(digest)
                        .or_default()
                        .push((offset, range.clone()));
                    offset
                }
            };
            records.push(BlobRecord {
                offset,
                len,
                source_trits: *source_trits,
                digest,
            });
        }

        // Write the fresh blobs past the committed epoch. Any torn tail
        // a previous crash left there is truncated away first — nothing
        // committed ever references it.
        file.set_len(self.index.committed_len)
            .map_err(io("truncating torn tail"))?;
        file.seek(SeekFrom::End(0))
            .map_err(io("seeking store end"))?;
        let boundary = self.kill_boundary();
        let mut written = 0u64;
        for range in &fresh {
            let blob = &frame_bytes[range.clone()];
            if let Some(b) = boundary {
                let remaining = usize::try_from(b - written).unwrap_or(usize::MAX);
                if blob.len() > remaining {
                    file.write_all(&blob[..remaining])
                        .map_err(io("writing store blob"))?;
                    let _ = file.sync_all();
                    return Err(ArchiveError::TornAppend {
                        written: written + remaining as u64,
                    });
                }
            }
            file.write_all(blob).map_err(io("writing store blob"))?;
            written += blob.len() as u64;
        }
        file.sync_all().map_err(io("syncing store"))?;
        if boundary.is_some() {
            // The armed kill boundary lies at or past the end of this
            // append's writes: the data became durable but the process
            // died before the index rename.
            return Err(ArchiveError::TornAppend { written });
        }

        // Commit the next epoch.
        let parity = records.split_off(n);
        let segs = records;
        let mut trit_starts = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        trit_starts.push(0);
        for b in &segs {
            acc += u64::from(b.source_trits);
            trit_starts.push(acc);
        }
        let mut next = self.index.clone();
        next.epoch += 1;
        next.committed_len = next_offset;
        next.dedup_hits += dedup_hits;
        next.frames.push(FrameRecord {
            header: frame_bytes[..header_bytes].to_vec(),
            segs: segs.clone(),
            parity: parity.clone(),
            trit_starts,
        });
        self.commit_index(&next)?;
        self.index = next;
        for b in segs.iter().chain(parity.iter()) {
            let cands = self.dedup.entry(b.digest).or_default();
            if !cands.contains(&(b.offset, b.len)) {
                cands.push((b.offset, b.len));
            }
        }
        crate::metrics::publish_count(crate::metrics::ARCHIVE_DEDUP_HITS, dedup_hits);
        Ok(AppendReceipt {
            frame: self.index.frames.len() - 1,
            segments: n + p,
            dedup_hits,
            new_bytes: written,
        })
    }

    /// Writes `index` to `<index path>.tmp`, `fsync`s it, and
    /// atomically renames it over the live index — the epoch commit
    /// point shared by append and scrub.
    pub(crate) fn commit_index(&self, index: &Index) -> Result<(), ArchiveError> {
        let bytes = index.encode();
        let mut tmp = self.index_path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut f = File::create(&tmp).map_err(io("creating index temp"))?;
        f.write_all(&bytes).map_err(io("writing index temp"))?;
        f.sync_all().map_err(io("syncing index temp"))?;
        std::fs::rename(&tmp, &self.index_path).map_err(io("renaming index epoch"))?;
        if let Some(dir) = self.index_path.parent() {
            // Make the rename itself durable; best effort on filesystems
            // that refuse directory handles.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reassembles frame `i` byte-exactly (verbatim header + blobs in
    /// wire order), CRC-verifying every blob on the way out.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::FrameOutOfRange`]; [`ArchiveError::Rotted`] when
    /// a blob fails its CRC (run [`Archive::scrub`](super::scrub));
    /// [`ArchiveError::Io`] on read failure.
    pub fn extract_frame(&self, i: usize) -> Result<Vec<u8>, ArchiveError> {
        let fr = self
            .index
            .frames
            .get(i)
            .ok_or(ArchiveError::FrameOutOfRange {
                frame: i,
                frames: self.index.frames.len(),
            })?;
        let mut file = File::open(&self.data_path).map_err(io("opening store"))?;
        let mut out = Vec::with_capacity(
            fr.header.len()
                + fr.segs
                    .iter()
                    .chain(fr.parity.iter())
                    .map(|b| b.len as usize)
                    .sum::<usize>(),
        );
        out.extend_from_slice(&fr.header);
        let limits = self.engine.limits;
        for (entry, b) in fr.segs.iter().chain(fr.parity.iter()).enumerate() {
            let blob = read_exact_at(&mut file, b.offset, b.len)?;
            if !frame::is_whole_segment(&blob, entry >= fr.segs.len(), &limits) {
                return Err(ArchiveError::Rotted {
                    frame: i,
                    segment: entry,
                });
            }
            out.extend_from_slice(&blob);
        }
        Ok(out)
    }

    /// Decodes `len` source trits starting at trit `start` of frame
    /// `frame`, reading **only** the overlapping segment blobs: they
    /// are reassembled into a minimal valid v2 frame and decoded
    /// through the engine's ordinary plan-then-execute path, then
    /// sliced to the requested range.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::FrameOutOfRange`] /
    /// [`ArchiveError::RangeOutOfBounds`] for bad coordinates;
    /// [`ArchiveError::Rotted`] when an overlapping blob fails its CRC;
    /// [`ArchiveError::Decode`] when the reassembled frame fails to
    /// decode.
    pub fn decode_range(
        &self,
        frame_idx: usize,
        start: usize,
        len: usize,
    ) -> Result<TritVec, ArchiveError> {
        let _span = ninec_obs::span("archive_range_decode");
        let fr = self
            .index
            .frames
            .get(frame_idx)
            .ok_or(ArchiveError::FrameOutOfRange {
                frame: frame_idx,
                frames: self.index.frames.len(),
            })?;
        let source_len = fr.source_len();
        let end = start.checked_add(len);
        if end.is_none_or(|e| e as u64 > source_len) {
            return Err(ArchiveError::RangeOutOfBounds {
                start,
                len,
                source_len: usize::try_from(source_len).unwrap_or(usize::MAX),
            });
        }
        if len == 0 {
            return Ok(TritVec::new());
        }
        let end = start + len;
        // First segment whose extent contains `start`, last containing
        // `end - 1` — `trit_starts` is a strictly cumulative prefix sum.
        let lo = fr.trit_starts.partition_point(|&t| t <= start as u64) - 1;
        let hi = fr.trit_starts.partition_point(|&t| t < end as u64) - 1;
        let limits = self.engine.limits;
        let head = frame::parse_file_header(&fr.header, &limits)?;
        let sub = &fr.segs[lo..=hi];
        let sub_src: u64 = sub.iter().map(|b| u64::from(b.source_trits)).sum();
        let mut mini = Vec::new();
        frame::write_header(&mut mini, head.table_lengths, sub.len() as u32, sub_src);
        let mut file = File::open(&self.data_path).map_err(io("opening store"))?;
        for (j, b) in sub.iter().enumerate() {
            let blob = read_exact_at(&mut file, b.offset, b.len)?;
            if !frame::is_whole_segment(&blob, false, &limits) {
                return Err(ArchiveError::Rotted {
                    frame: frame_idx,
                    segment: lo + j,
                });
            }
            mini.extend_from_slice(&blob);
        }
        let trits = self
            .engine
            .decode_frame(&mini)
            .map_err(ArchiveError::Decode)?;
        let off = start - usize::try_from(fr.trit_starts[lo]).unwrap_or(0);
        Ok(trits.slice(off, off + len))
    }
}

/// Seeks to `offset` and reads exactly `len` bytes, unverified.
pub(super) fn read_exact_at(
    file: &mut File,
    offset: u64,
    len: u32,
) -> Result<Vec<u8>, ArchiveError> {
    file.seek(SeekFrom::Start(offset))
        .map_err(io("seeking store blob"))?;
    let mut buf = vec![0u8; len as usize];
    file.read_exact(&mut buf)
        .map_err(io("reading store blob"))?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn tv(s: &str) -> TritVec {
        s.parse().expect("valid trit literal")
    }

    fn sample(repeat: usize) -> TritVec {
        tv(&"0X0X01X001X0101X111111110000X1111X0110XX".repeat(repeat))
    }

    fn engine() -> Engine {
        Engine::builder().threads(1).segment_bits(80).build()
    }

    #[test]
    fn roundtrips_frames_byte_exactly() {
        let dir = tempdir("arc_roundtrip");
        let eng = engine();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        let f1 = eng.encode_frame(8, &sample(10)).expect("frame");
        let f2 = eng.encode_frame(4, &sample(7)).expect("frame");
        arc.append_frame(&f1).expect("append");
        arc.append_frame(&f2).expect("append");
        assert_eq!(arc.frame_count(), 2);
        // Reopen from disk: same index, byte-exact extraction.
        let arc = Archive::open(dir.join("t.9ca"), &eng).expect("open");
        assert_eq!(arc.extract_frame(0).expect("extract"), f1);
        assert_eq!(arc.extract_frame(1).expect("extract"), f2);
        assert!(matches!(
            arc.extract_frame(2),
            Err(ArchiveError::FrameOutOfRange {
                frame: 2,
                frames: 2
            })
        ));
    }

    #[test]
    fn dedups_identical_segments_across_frames() {
        let dir = tempdir("arc_dedup");
        let eng = engine();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        let stream = sample(12);
        let frame_bytes = eng.encode_frame(8, &stream).expect("frame");
        let first = arc.append_frame(&frame_bytes).expect("append");
        // The repeating sample makes every segment byte-identical, so
        // even the first append dedups within the frame.
        assert!(first.new_bytes > 0);
        let second = arc.append_frame(&frame_bytes).expect("append");
        assert_eq!(second.dedup_hits as usize, second.segments);
        assert_eq!(second.new_bytes, 0);
        let stats = arc.stats();
        assert!(stats.dedup_ratio() > 1.9, "ratio {}", stats.dedup_ratio());
        // Both frames still extract byte-exactly.
        assert_eq!(arc.extract_frame(0).expect("extract"), frame_bytes);
        assert_eq!(arc.extract_frame(1).expect("extract"), frame_bytes);
    }

    #[test]
    fn random_access_matches_full_decode() {
        let dir = tempdir("arc_range");
        let eng = engine();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        let stream = sample(20);
        let frame_bytes = eng.encode_frame(8, &stream).expect("frame");
        arc.append_frame(&frame_bytes).expect("append");
        let full = eng.decode_frame(&frame_bytes).expect("decode");
        for (start, len) in [(0usize, 5usize), (79, 3), (100, 200), (0, stream.len())] {
            let got = arc.decode_range(0, start, len).expect("range");
            assert_eq!(got.len(), len, "start {start} len {len}");
            for i in 0..len {
                assert_eq!(got.get(i), full.get(start + i), "start {start} trit {i}");
            }
        }
        assert!(arc.decode_range(0, 0, 0).expect("empty").is_empty());
        assert!(matches!(
            arc.decode_range(0, stream.len(), 1),
            Err(ArchiveError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn bombed_index_is_rejected_before_allocation() {
        let dir = tempdir("arc_bomb");
        let eng = engine();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        arc.append_frame(&eng.encode_frame(8, &sample(5)).expect("frame"))
            .expect("append");
        // Forge a frame count far beyond the record bytes present, with
        // a fixed-up CRC — the cross-check must reject it without
        // allocating a giant Vec.
        let mut bytes = std::fs::read(arc.index_path()).expect("read index");
        let body_len = bytes.len() - 4;
        bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = frame::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(arc.index_path(), &bytes).expect("write index");
        assert!(matches!(
            Archive::open(dir.join("t.9ca"), &eng),
            Err(ArchiveError::BadIndex { .. })
        ));
        // An index over the byte ceiling is rejected by size alone.
        let tight = frame::DecodeLimits {
            max_index_bytes: 8,
            ..frame::DecodeLimits::default()
        };
        let tight_engine = Engine::builder().limits(tight).build();
        assert!(matches!(
            Archive::open(dir.join("t.9ca"), &tight_engine),
            Err(ArchiveError::Frame(FrameError::LimitExceeded { .. }))
        ));
    }

    #[test]
    fn non_archive_store_is_typed() {
        let dir = tempdir("arc_sniff");
        std::fs::write(dir.join("junk.9ca"), b"garbage bytes").expect("write");
        let e = Archive::open(dir.join("junk.9ca"), &engine()).expect_err("not an archive");
        assert!(matches!(e, ArchiveError::NotAnArchive { .. }));
        assert!(!is_archive(b"garbage"));
        assert!(is_archive(b"9CA1rest"));
    }

    /// Private scratch dir per test (std-only; no tempfile crate).
    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ninec_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }
}
