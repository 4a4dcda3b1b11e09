//! Bit-rot scrubbing for `9CA` archives.
//!
//! [`Archive::scrub`] walks every stored segment reference, re-verifies
//! its CRC-32, and — where a frame carries GF(256) parity groups —
//! classifies and (in [`ScrubMode::Repair`]) heals the damage:
//!
//! - `Clean` — every CRC in the group checks out (clean groups emit no
//!   finding; a clean archive's report is empty);
//! - `Repaired` — rotted blobs were rebuilt **byte-exactly** from the
//!   group's parity budget, re-verified against both their own CRC and
//!   their recorded content digest, and rewritten in place;
//! - `Degraded { remaining_budget }` — rot is within the parity budget
//!   but was *not* rewritten ([`ScrubMode::Check`]); the budget says
//!   how many more losses the group can still absorb;
//! - `Lost` — rot exceeds the budget (or the frame has no parity);
//!   bytes are gone until a good replica is re-appended.
//!
//! In-place rewrites are safe under the archive's epoch discipline
//! because a repair writes back the blob's *original* bytes: a torn
//! rewrite leaves a prefix of correct bytes and a suffix of rotted ones
//! — either the full original (done) or a blob that still fails its
//! CRC and is repaired again by the next scrub. After any rewrite the
//! store is `fsync`ed and a fresh epoch is committed via the same
//! write-temp + atomic-rename path as appends.
//!
//! The checks are shared: every blob is verified by
//! `frame::is_whole_segment`, as extraction and range decode verify
//! theirs, and a damaged group is rebuilt by `ParityCoder::rebuild`, as
//! the decode ladder's repair rung rebuilds one. The scrubber's own part
//! is reading the blobs, holding each rebuilt blob to its record's
//! digest, regenerating rotted parity, and writing back only once every
//! rebuild of the group has verified.
//!
//! A scrub publishes the `ninec.archive.{scrubbed_segments,
//! repaired_segments,lost_segments}` counters and emits
//! `archive_scrub` / `scrub_frame` spans into the flight recorder.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};

use super::archive::{blob_digest, read_exact_at, Archive, ArchiveError, FrameRecord};
use super::ecc::ParityCoder;
use super::frame;

/// Whether a scrub may rewrite the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubMode {
    /// Read-only: report every finding, rewrite nothing. In-budget rot
    /// is reported as [`ScrubVerdict::Degraded`].
    Check,
    /// Rebuild every repairable blob from parity and rewrite it in
    /// place, then commit a fresh epoch.
    Repair,
}

/// The scrubber's classification of one damaged parity group (or one
/// unprotected damaged frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubVerdict {
    /// No damage (never emitted as a finding; the absence of findings
    /// *is* the clean verdict).
    Clean,
    /// Every rotted blob was rebuilt byte-exactly and rewritten.
    Repaired,
    /// Rot is within the parity budget but was not rewritten
    /// ([`ScrubMode::Check`]).
    Degraded {
        /// Further member losses this group can still absorb.
        remaining_budget: u8,
    },
    /// Rot exceeds the parity budget — unrecoverable from this archive.
    Lost,
}

/// One damaged parity group (or unprotected frame) found by a scrub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// Frame the damage belongs to.
    pub frame: usize,
    /// Parity group within the frame (0 for unprotected frames).
    pub group: usize,
    /// The classification.
    pub verdict: ScrubVerdict,
    /// Affected segment entries (data index, or `n + j` for parity
    /// shard `j`).
    pub segments: Vec<usize>,
    /// Store byte ranges of the rotted blobs, as `(offset, len)`.
    pub store_ranges: Vec<(u64, u32)>,
}

/// Everything one scrub pass saw and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// The mode the scrub ran in.
    pub mode: ScrubMode,
    /// Segment references walked (every CRC checked).
    pub scrubbed_segments: u64,
    /// References rebuilt byte-exactly and rewritten in place.
    pub repaired_segments: u64,
    /// References beyond the parity budget.
    pub lost_segments: u64,
    /// References with in-budget rot left unrepaired (check mode).
    pub degraded_segments: u64,
    /// Every damaged group, in frame order. Empty means clean.
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// `true` when the walk found no damage at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` when damage remains on disk after this scrub — anything
    /// `Degraded` or `Lost` (the CLI's exit-5 condition).
    #[must_use]
    pub fn needs_attention(&self) -> bool {
        self.findings
            .iter()
            .any(|f| !matches!(f.verdict, ScrubVerdict::Repaired))
    }

    /// `true` when some finding's rotted store range contains byte
    /// `offset` — the fault-injection trichotomy's "the scrub report
    /// covers the mutated byte".
    #[must_use]
    pub fn covers_offset(&self, offset: u64) -> bool {
        self.findings.iter().any(|f| {
            f.store_ranges
                .iter()
                .any(|&(start, len)| offset >= start && offset < start + u64::from(len))
        })
    }
}

/// One damaged parity group of a frame: its data segments in slot order,
/// and which of them and of its parity records (`q·r + j`) rotted.
struct DamagedGroup {
    q: usize,
    members: Vec<usize>,
    rotted_members: Vec<usize>,
    rotted_parity: Vec<usize>,
}

impl Archive {
    /// Walks every stored segment reference, verifying CRCs and — in
    /// [`ScrubMode::Repair`] — rebuilding rotted blobs from their
    /// frame's parity groups and rewriting them in place. See the
    /// [module docs](self) for the verdict semantics and the in-place
    /// rewrite safety argument.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Io`] on store read/write failures; findings
    /// (including `Lost`) are *not* errors — they are the report.
    pub fn scrub(&mut self, mode: ScrubMode) -> Result<ScrubReport, ArchiveError> {
        let _span = ninec_obs::catalogue::SPAN_ARCHIVE_SCRUB.start();
        let limits = self.engine.limits;
        let mut file = OpenOptions::new()
            .read(true)
            .write(matches!(mode, ScrubMode::Repair))
            .open(self.data_path.clone())
            .map_err(|source| ArchiveError::Io {
                what: "opening store for scrub",
                source,
            })?;
        // Validity cache across frames: a dedup-shared blob is checked
        // once and, when one frame's group repairs it, every other
        // referencing frame sees it healed.
        let mut valid: HashMap<(u64, bool), bool> = HashMap::new();
        let mut report = ScrubReport {
            mode,
            scrubbed_segments: 0,
            repaired_segments: 0,
            lost_segments: 0,
            degraded_segments: 0,
            findings: Vec::new(),
        };
        let mut wrote = false;
        for (fi, fr) in self.index.frames.iter().enumerate() {
            let _frame_span = ninec_obs::catalogue::SPAN_SCRUB_FRAME.start();
            let n = fr.segs.len();
            let Ok(head) = frame::parse_file_header(&fr.header, &limits) else {
                // Unreachable for an index that passed decode; stay total.
                continue;
            };
            // Rotted data segments, and rotted parity records.
            let mut rotted_data = Vec::new();
            let mut rotted_parity = Vec::new();
            for (entry, b) in fr.segs.iter().chain(fr.parity.iter()).enumerate() {
                report.scrubbed_segments += 1;
                let parity = entry >= n;
                let ok = match valid.entry((b.offset, parity)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(slot) => {
                        let blob = read_exact_at(&mut file, b.offset, b.len)?;
                        *slot.insert(frame::is_whole_segment(&blob, parity, &limits))
                    }
                };
                match (ok, parity) {
                    (true, _) => {}
                    (false, false) => rotted_data.push(entry),
                    (false, true) => rotted_parity.push(entry - n),
                }
            }
            if rotted_data.is_empty() && rotted_parity.is_empty() {
                continue;
            }
            let Ok(coder) = ParityCoder::new(head.parity_g as usize, head.parity_r as usize) else {
                // Unprotected frame: every rotted blob is lost.
                report.lost_segments += rotted_data.len() as u64;
                report.findings.push(ScrubFinding {
                    frame: fi,
                    group: 0,
                    verdict: ScrubVerdict::Lost,
                    store_ranges: rotted_data
                        .iter()
                        .map(|&e| (fr.segs[e].offset, fr.segs[e].len))
                        .collect(),
                    segments: rotted_data,
                });
                continue;
            };
            let r = coder.r();
            let groups = head.groups();
            for q in 0..groups {
                let group = DamagedGroup {
                    q,
                    members: frame::group_members(q, n, groups).collect(),
                    rotted_members: rotted_data
                        .iter()
                        .copied()
                        .filter(|&e| frame::group_of(e, groups) == q)
                        .collect(),
                    rotted_parity: rotted_parity
                        .iter()
                        .copied()
                        .filter(|&j| j / r == q)
                        .collect(),
                };
                let e_d = group.rotted_members.len();
                let e = e_d + group.rotted_parity.len();
                if e == 0 {
                    continue;
                }
                // Repairable: total erasures within the parity budget,
                // or parity-only rot (regenerable from intact data).
                let repairable = e <= r || e_d == 0;
                let verdict = match (mode, repairable) {
                    (_, false) => ScrubVerdict::Lost,
                    (ScrubMode::Check, true) => ScrubVerdict::Degraded {
                        remaining_budget: u8::try_from(r.saturating_sub(e)).unwrap_or(0),
                    },
                    (ScrubMode::Repair, true) => {
                        if self.repair_group(&mut file, fr, &coder, &group)? {
                            wrote = true;
                            for &m in &group.rotted_members {
                                valid.insert((fr.segs[m].offset, false), true);
                            }
                            for &j in &group.rotted_parity {
                                valid.insert((fr.parity[j].offset, true), true);
                            }
                            ScrubVerdict::Repaired
                        } else {
                            ScrubVerdict::Lost
                        }
                    }
                };
                match verdict {
                    ScrubVerdict::Repaired => report.repaired_segments += e as u64,
                    ScrubVerdict::Degraded { .. } => report.degraded_segments += e as u64,
                    ScrubVerdict::Lost => report.lost_segments += e as u64,
                    ScrubVerdict::Clean => {}
                }
                report.findings.push(ScrubFinding {
                    frame: fi,
                    group: q,
                    verdict,
                    segments: group
                        .rotted_members
                        .iter()
                        .copied()
                        .chain(group.rotted_parity.iter().map(|&j| n + j))
                        .collect(),
                    store_ranges: group
                        .rotted_members
                        .iter()
                        .map(|&m| (fr.segs[m].offset, fr.segs[m].len))
                        .chain(
                            group
                                .rotted_parity
                                .iter()
                                .map(|&j| (fr.parity[j].offset, fr.parity[j].len)),
                        )
                        .collect(),
                });
            }
        }
        if wrote {
            file.sync_all().map_err(|source| ArchiveError::Io {
                what: "syncing scrubbed store",
                source,
            })?;
            let mut next = self.index.clone();
            next.epoch += 1;
            self.commit_index(&next)?;
            self.index = next;
        }
        crate::metrics::publish_archive_scrub(
            report.scrubbed_segments,
            report.repaired_segments,
            report.lost_segments,
        );
        Ok(report)
    }

    /// Rebuilds one group's rotted blobs from its parity budget and
    /// rewrites them in place. Returns `Ok(true)` when every rotted
    /// blob was rebuilt, digest-verified and written; `Ok(false)` when
    /// reconstruction is impossible (inconsistent shards, failed
    /// re-verification) — the caller records `Lost`.
    fn repair_group(
        &self,
        file: &mut File,
        fr: &FrameRecord,
        coder: &ParityCoder,
        group: &DamagedGroup,
    ) -> Result<bool, ArchiveError> {
        let limits = self.engine.limits;
        let (q, r) = (group.q, coder.r());
        // Read the group's surviving blobs once.
        let mut member_blobs = Vec::with_capacity(group.members.len());
        for &m in &group.members {
            let b = &fr.segs[m];
            member_blobs.push(if group.rotted_members.contains(&m) {
                None
            } else {
                Some(read_exact_at(file, b.offset, b.len)?)
            });
        }
        let mut parity_blobs = Vec::with_capacity(r);
        for pj in q * r..(q + 1) * r {
            parity_blobs.push(match fr.parity.get(pj) {
                Some(b) if !group.rotted_parity.contains(&pj) => {
                    Some(read_exact_at(file, b.offset, b.len)?)
                }
                _ => None,
            });
        }
        let mut parity = Vec::with_capacity(r);
        for blob in &parity_blobs {
            parity.push(match blob {
                Some(bytes) => match frame::parity_at(bytes, 0, 0, &limits, None) {
                    Ok((par, _)) => Some(par.payload),
                    Err(_) => return Ok(false),
                },
                None => None,
            });
        }
        let members: Vec<Option<&[u8]>> = member_blobs.iter().map(Option::as_deref).collect();
        let Some((shard_len, rebuilt)) = coder.rebuild(&members, &parity) else {
            return Ok(false);
        };
        // Accept only a blob that spans exactly its record and re-verifies
        // against both its own CRC and the index's recorded content
        // digest — byte-exact restoration or nothing.
        for (slot, mut blob) in rebuilt {
            let record = &fr.segs[group.members[slot]];
            let len = record.len as usize;
            if blob.len() < len {
                return Ok(false);
            }
            blob.truncate(len);
            if !frame::is_whole_segment(&blob, false, &limits)
                || blob_digest(&blob) != record.digest
            {
                return Ok(false);
            }
            member_blobs[slot] = Some(blob);
        }
        let mut rebuilt_parity: Vec<(u64, Vec<u8>)> = Vec::new();
        if !group.rotted_parity.is_empty() {
            // Regenerate parity from the now-complete member set.
            let Some(full) = member_blobs
                .iter()
                .map(Option::as_deref)
                .collect::<Option<Vec<&[u8]>>>()
            else {
                return Ok(false);
            };
            let shards = coder.encode(&full, shard_len);
            for &pj in &group.rotted_parity {
                let j = pj - q * r;
                let (Some(shard), Some(record)) = (shards.get(j), fr.parity.get(pj)) else {
                    return Ok(false);
                };
                let mut blob = Vec::new();
                if frame::write_parity_segment(&mut blob, q, j, shard).is_err()
                    || blob.len() != record.len as usize
                    || blob_digest(&blob) != record.digest
                {
                    return Ok(false);
                }
                rebuilt_parity.push((record.offset, blob));
            }
        }
        // Every rebuild verified — now (and only now) touch the store.
        for (m, blob) in group.members.iter().zip(&member_blobs) {
            if let (true, Some(blob)) = (group.rotted_members.contains(m), blob) {
                write_at(file, fr.segs[*m].offset, blob)?;
            }
        }
        for (offset, blob) in &rebuilt_parity {
            write_at(file, *offset, blob)?;
        }
        Ok(true)
    }
}

/// Seeks to `offset` and writes `bytes` in place.
fn write_at(file: &mut File, offset: u64, bytes: &[u8]) -> Result<(), ArchiveError> {
    file.seek(SeekFrom::Start(offset))
        .map_err(|source| ArchiveError::Io {
            what: "seeking rewrite offset",
            source,
        })?;
    file.write_all(bytes).map_err(|source| ArchiveError::Io {
        what: "rewriting repaired blob",
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use ninec_testdata::trit::TritVec;
    use std::path::PathBuf;

    fn tv(s: &str) -> TritVec {
        s.parse().expect("valid trit literal")
    }

    /// A deterministic non-repeating stream, so segments never dedup
    /// into one shared blob (which would change erasure counts).
    fn varied(len: usize) -> TritVec {
        let mut s = String::with_capacity(len);
        let mut x = 0x1234_5678u32;
        for _ in 0..len {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            s.push(match (x >> 24) % 3 {
                0 => '0',
                1 => '1',
                _ => 'X',
            });
        }
        tv(&s)
    }

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

    /// Flips one byte inside the store at `offset`.
    fn rot(path: &std::path::Path, offset: u64) {
        let mut bytes = std::fs::read(path).expect("read store");
        bytes[offset as usize] ^= 0xFF;
        std::fs::write(path, bytes).expect("write store");
    }

    #[test]
    fn clean_archive_scrubs_clean() {
        let dir = tempdir("scrub_clean");
        let eng = Engine::builder()
            .threads(1)
            .segment_bits(80)
            .parity(4, 2)
            .build();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        arc.append_frame(&eng.encode_frame(8, &varied(400)).expect("frame"))
            .expect("append");
        let report = arc.scrub(ScrubMode::Check).expect("scrub");
        assert!(report.is_clean());
        assert!(!report.needs_attention());
        assert!(report.scrubbed_segments > 0);
    }

    #[test]
    fn rot_within_budget_is_degraded_then_repaired() {
        let dir = tempdir("scrub_repair");
        let eng = Engine::builder()
            .threads(1)
            .segment_bits(80)
            .parity(4, 2)
            .build();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        let frame_bytes = eng.encode_frame(8, &varied(400)).expect("frame");
        arc.append_frame(&frame_bytes).expect("append");
        // Rot one byte inside the first data blob's payload.
        let offset = crate::engine::archive::DATA_HEADER_BYTES as u64
            + frame::SEGMENT_HEADER_BYTES as u64
            + 1;
        rot(arc.path(), offset);

        let check = arc.scrub(ScrubMode::Check).expect("check");
        assert!(check.needs_attention());
        assert!(check.covers_offset(offset));
        assert!(matches!(
            check.findings[0].verdict,
            ScrubVerdict::Degraded {
                remaining_budget: 1
            }
        ));
        assert_eq!(check.degraded_segments, 1);

        let epoch_before = arc.epoch();
        let repair = arc.scrub(ScrubMode::Repair).expect("repair");
        assert!(!repair.needs_attention());
        assert_eq!(repair.repaired_segments, 1);
        assert!(matches!(repair.findings[0].verdict, ScrubVerdict::Repaired));
        assert_eq!(arc.epoch(), epoch_before + 1);

        // The store is byte-exactly healed: extraction matches the
        // original frame and a fresh scrub is clean.
        assert_eq!(arc.extract_frame(0).expect("extract"), frame_bytes);
        assert!(arc.scrub(ScrubMode::Check).expect("rescrub").is_clean());
    }

    /// Neighbouring data segments sit in different interleaved groups, so
    /// each group loses one member. The walker merges such neighbours
    /// into one damaged range, and the decode ladder's repair rung then
    /// rebuilds neither; the scrubber knows every blob's position and
    /// must rebuild both.
    #[test]
    fn neighbouring_rot_in_different_groups_is_degraded_then_repaired() {
        let dir = tempdir("scrub_neighbours");
        let eng = Engine::builder()
            .threads(1)
            .segment_bits(80)
            .parity(4, 1)
            .build();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        let frame_bytes = eng.encode_frame(8, &varied(400)).expect("frame");
        arc.append_frame(&frame_bytes).expect("append");
        let segs = arc.index.frames[0].segs.clone();
        let groups = frame::group_count(segs.len(), 4);
        assert_ne!(frame::group_of(1, groups), frame::group_of(2, groups));
        for seg in &segs[1..3] {
            rot(arc.path(), seg.offset + frame::SEGMENT_HEADER_BYTES as u64);
        }

        let check = arc.scrub(ScrubMode::Check).expect("check");
        assert_eq!(check.findings.len(), 2);
        let mut rotted: Vec<usize> = check
            .findings
            .iter()
            .flat_map(|f| f.segments.clone())
            .collect();
        rotted.sort_unstable();
        assert_eq!(rotted, [1, 2]);
        assert!(check.findings.iter().all(|f| f.verdict
            == ScrubVerdict::Degraded {
                remaining_budget: 0
            }));
        assert_eq!(check.degraded_segments, 2);

        let repair = arc.scrub(ScrubMode::Repair).expect("repair");
        assert!(!repair.needs_attention());
        assert_eq!(repair.repaired_segments, 2);
        assert_eq!(arc.extract_frame(0).expect("extract"), frame_bytes);
        assert!(arc.scrub(ScrubMode::Check).expect("rescrub").is_clean());
    }

    #[test]
    fn rot_beyond_budget_is_lost() {
        let dir = tempdir("scrub_lost");
        let eng = Engine::builder()
            .threads(1)
            .segment_bits(40)
            .parity(8, 1)
            .build();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        let frame_bytes = eng.encode_frame(8, &varied(400)).expect("frame");
        let receipt = arc.append_frame(&frame_bytes).expect("append");
        assert!(receipt.segments >= 4, "need several segments in one group");
        // Rot two data blobs in the same (single) parity group: r = 1
        // cannot cover two erasures.
        let arc_read = Archive::open(dir.join("t.9ca"), &eng).expect("open");
        let f0 = arc_read.index.frames[0].clone();
        drop(arc_read);
        // Interleaved grouping: segments 0 and 2 share group 0 when
        // there are two groups, so two erasures exceed r = 1.
        rot(
            arc.path(),
            f0.segs[0].offset + frame::SEGMENT_HEADER_BYTES as u64,
        );
        rot(
            arc.path(),
            f0.segs[2].offset + frame::SEGMENT_HEADER_BYTES as u64,
        );
        let report = arc.scrub(ScrubMode::Repair).expect("scrub");
        assert!(report.needs_attention());
        assert!(report.lost_segments >= 2);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f.verdict, ScrubVerdict::Lost)));
        // Extraction of the damaged frame reports rot, typed.
        assert!(matches!(
            arc.extract_frame(0),
            Err(ArchiveError::Rotted { .. })
        ));
    }

    #[test]
    fn unprotected_frame_rot_is_lost() {
        let dir = tempdir("scrub_v2");
        let eng = Engine::builder().threads(1).segment_bits(80).build();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        arc.append_frame(&eng.encode_frame(8, &varied(400)).expect("frame"))
            .expect("append");
        rot(
            arc.path(),
            crate::engine::archive::DATA_HEADER_BYTES as u64 + frame::SEGMENT_HEADER_BYTES as u64,
        );
        let report = arc.scrub(ScrubMode::Repair).expect("scrub");
        assert!(report.needs_attention());
        assert!(report.lost_segments >= 1);
    }

    #[test]
    fn rotted_parity_is_regenerated_from_data() {
        let dir = tempdir("scrub_parity");
        let eng = Engine::builder()
            .threads(1)
            .segment_bits(80)
            .parity(4, 2)
            .build();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        let frame_bytes = eng.encode_frame(8, &varied(400)).expect("frame");
        arc.append_frame(&frame_bytes).expect("append");
        let arc_read = Archive::open(dir.join("t.9ca"), &eng).expect("open");
        let parity0 = arc_read.index.frames[0].parity[0];
        drop(arc_read);
        rot(
            arc.path(),
            parity0.offset + frame::SEGMENT_HEADER_BYTES as u64,
        );
        let report = arc.scrub(ScrubMode::Repair).expect("scrub");
        assert_eq!(report.repaired_segments, 1);
        assert!(!report.needs_attention());
        assert_eq!(arc.extract_frame(0).expect("extract"), frame_bytes);
    }

    #[test]
    fn shared_rotted_blob_heals_every_referencing_frame() {
        let dir = tempdir("scrub_shared");
        let eng = Engine::builder()
            .threads(1)
            .segment_bits(80)
            .parity(4, 2)
            .build();
        let mut arc = Archive::create(dir.join("t.9ca"), &eng).expect("create");
        let frame_bytes = eng.encode_frame(8, &varied(400)).expect("frame");
        arc.append_frame(&frame_bytes).expect("append");
        let receipt = arc.append_frame(&frame_bytes).expect("append");
        assert!(receipt.dedup_hits > 0);
        let arc_read = Archive::open(dir.join("t.9ca"), &eng).expect("open");
        let shared = arc_read.index.frames[0].segs[0];
        assert_eq!(shared, arc_read.index.frames[1].segs[0]);
        drop(arc_read);
        rot(
            arc.path(),
            shared.offset + frame::SEGMENT_HEADER_BYTES as u64,
        );
        let report = arc.scrub(ScrubMode::Repair).expect("scrub");
        assert!(!report.needs_attention());
        // Both frames extract byte-exactly after one repair.
        assert_eq!(arc.extract_frame(0).expect("extract"), frame_bytes);
        assert_eq!(arc.extract_frame(1).expect("extract"), frame_bytes);
    }
}
