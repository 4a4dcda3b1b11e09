//! Plan-then-execute decode pipeline: one frame walker, one ladder.
//!
//! A [`FramePlan`] is built by **one** pass over the frame body —
//! header parse, limits check, per-segment CRC verdict, parity
//! membership and byte ranges — and every rung executes against it:
//!
//! - **strict** decodes only [`PlanEntry::Data`] entries (the CRC
//!   verdicts are already in the plan, nothing is re-verified) and fails
//!   closed on the plan's [`strict_error`](FramePlan::strict_error);
//! - **repair** feeds the plan's erasure positions straight to
//!   [`ParityCoder::reconstruct`](crate::engine::ecc::ParityCoder) —
//!   no re-scan, and each rebuilt shard is parsed exactly once;
//! - **salvage** materialises X-runs from the same entries.
//!
//! [`Engine::build_plan`] + [`Engine::execute_plan`] are the single
//! entry point the decode ladder ([`crate::session::DecodeSession`], the
//! CLI) drives: build one plan, try [`Policy::Strict`], fall back to
//! [`Policy::Repair`] or [`Policy::Salvage`] **on the same plan** — one
//! header/CRC pass for the whole ladder, proven by the
//! `ninec.frame.scan_passes` counter. Every rung, and the streaming
//! reader, decodes its segments through one in-place fan-out,
//! `decode_in_place`, whose every job is `Engine::decode_one_segment`
//! under its `segment_decode` span. The caller grows the frame's output
//! first and gives each job the output position of its first trit; the
//! job writes the words wholly inside its segment's trit range, and only
//! the words neighbours share are merged after the join. Strict decode
//! fails on the first bad slot, while repair and salvage, which fix
//! their layout after the parity rebuilds, keep a failed slot as `X`.
//!
//! The walk itself is the `Walker` step: given the bytes at hand, it
//! classifies the entry at the walk position into a [`PlanEntry`] — or
//! asks for more bytes — and resynchronises past damage. It is the only
//! code that steps through a frame's segments, fed two ways: a slice
//! decode hands it the whole frame as one chunk, and the streaming
//! [`FrameReader`](crate::engine::reader::FrameReader) hands it its
//! bounded window. Archive appends take their blob ranges and their
//! accept/reject verdict from a fail-fast plan of the same walk.
//!
//! The strict verdict is computed *during* the walk by a
//! `StrictTracker`, in strict order: the bomb check, per-segment budget
//! and overflow, the source-length sum, parity `(group, pindex)` order,
//! trailing bytes. The outcome goldens (`tests/golden/outcomes_*.txt`)
//! pin the verdict of both build modes against history over every
//! single-byte mutation and every truncation of a v2 and a v3 frame:
//! [`Engine::decode_frame`] runs the fail-fast walk, and
//! [`Engine::build_plan`] with [`Policy::Strict`] the full one.

use crate::decode::{DecodeError, DecodeTable};
use crate::engine::crc::PrefixCrc;
use crate::engine::exec::{self, JobOutcome};
use crate::engine::frame::{
    self, DamageReason, DecodeLimits, FrameError, ParsedParity, ParsedSegment, Resync,
    StreamHeader, SEGMENT_HEADER_BYTES,
};
use crate::engine::{cancel, Engine, SalvageReport, SegmentDecode};
use crate::metrics::DecodeTally;
use crate::stream::{low_bits, BitSink};
use ninec_obs::catalogue;
use ninec_testdata::trit::{Trit, TritVec};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Which rung of the decode ladder to run against a [`FramePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Policy {
    /// Fail-closed: any damage is a typed error (the plan's strict
    /// verdict), byte-identical to [`Engine::decode_frame`].
    Strict,
    /// Rebuild damaged segments from v3 parity groups first, then
    /// salvage whatever could not be reconstructed.
    Repair,
    /// Skip parity reconstruction: intact segments decode, damage is
    /// erased to `X` runs.
    Salvage,
}

/// How a walk reacts to the first strict-order deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildMode {
    /// Stop at the first deviation without resync probing, used by
    /// [`Engine::decode_frame`], streaming strict decode and archive
    /// appends. The resulting plan carries the strict verdict but no
    /// salvage-grade damage map.
    FailFast,
    /// Walk the whole body, resynchronising past damage, so the same
    /// plan serves strict, repair and salvage.
    Full,
}

/// One classified byte range of a [`FramePlan`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum PlanEntry<'a> {
    /// A CRC-valid data segment within the decode allocation budget.
    Data {
        /// The parsed (already CRC-verified) segment.
        seg: ParsedSegment<'a>,
        /// The bytes it occupies (header + payload).
        byte_range: Range<usize>,
    },
    /// A CRC-valid data segment whose decode would bust the running
    /// [`DecodeLimits::max_total_alloc`] budget — strict decode rejects
    /// the frame, salvage erases this range instead of decoding it.
    OverBudget {
        /// The parsed segment (not decoded — too expensive).
        seg: ParsedSegment<'a>,
        /// The bytes it occupies.
        byte_range: Range<usize>,
    },
    /// A CRC-valid v3 parity shard (contributes no output trits; feeds
    /// the repair rung).
    Parity {
        /// The parsed parity shard.
        par: ParsedParity<'a>,
        /// The bytes it occupies (header + shard).
        byte_range: Range<usize>,
    },
    /// A byte range that could not be parsed as a valid segment, up to
    /// the resynchronisation point.
    Damaged {
        /// The bytes written off.
        byte_range: Range<usize>,
        /// The `source_trits` field the (untrusted) header claimed, if
        /// the 16 header bytes were at least present. Parity headers
        /// carry no source trits — their claim is zero.
        claimed_source_trits: Option<usize>,
        /// The verbatim parse error, exactly as `frame::segment_at` /
        /// `frame::parity_at` reported it.
        error: FrameError,
    },
}

impl PlanEntry<'_> {
    /// The byte range this entry covers.
    #[must_use]
    pub fn byte_range(&self) -> Range<usize> {
        match self {
            PlanEntry::Data { byte_range, .. }
            | PlanEntry::OverBudget { byte_range, .. }
            | PlanEntry::Parity { byte_range, .. }
            | PlanEntry::Damaged { byte_range, .. } => byte_range.clone(),
        }
    }

    /// For an entry salvage writes off — a damaged range, or a segment
    /// too expensive to decode — why, and the untrusted source-trit
    /// claim that sizes its erasure run. `None` for data and parity.
    pub(crate) fn damage(&self) -> Option<(DamageReason, Option<usize>)> {
        match self {
            PlanEntry::Data { .. } | PlanEntry::Parity { .. } => None,
            PlanEntry::OverBudget { seg, .. } => Some((
                DamageReason::LimitExceeded("total decode allocation"),
                Some(seg.source_trits),
            )),
            PlanEntry::Damaged {
                claimed_source_trits,
                error,
                ..
            } => Some((
                DamageReason::from_frame_error(error.clone()),
                *claimed_source_trits,
            )),
        }
    }
}

/// A frame's complete decode plan: every body byte classified in one
/// header/CRC scan pass, plus the strict verdict. Built by
/// [`Engine::build_plan`], consumed by [`Engine::execute_plan`] at any
/// [`Policy`].
#[derive(Debug, Clone)]
pub struct FramePlan<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) table_lengths: [u8; 9],
    pub(crate) source_len: usize,
    pub(crate) claimed_segments: usize,
    pub(crate) version: u8,
    pub(crate) parity_g: u8,
    pub(crate) parity_r: u8,
    pub(crate) limits: DecodeLimits,
    pub(crate) entries: Vec<PlanEntry<'a>>,
    pub(crate) strict_error: Option<FrameError>,
}

impl<'a> FramePlan<'a> {
    /// The frame bytes the plan indexes into.
    #[must_use]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Codeword lengths of C1..C9, as stored in the (CRC-valid) header.
    #[must_use]
    pub fn table_lengths(&self) -> [u8; 9] {
        self.table_lengths
    }

    /// Total source trits the header claims.
    #[must_use]
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// Data-segment count the header claims.
    #[must_use]
    pub fn claimed_segments(&self) -> usize {
        self.claimed_segments
    }

    /// Frame version byte ([`frame::VERSION`] or [`frame::VERSION_V3`]).
    #[must_use]
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Data segments per parity group (0 = unprotected / v2 frame).
    #[must_use]
    pub fn parity_g(&self) -> u8 {
        self.parity_g
    }

    /// Parity segments per group.
    #[must_use]
    pub fn parity_r(&self) -> u8 {
        self.parity_r
    }

    /// The [`DecodeLimits`] the plan was built under.
    #[must_use]
    pub fn limits(&self) -> &DecodeLimits {
        &self.limits
    }

    /// The classified byte ranges, in stream order.
    #[must_use]
    pub fn entries(&self) -> &[PlanEntry<'a>] {
        &self.entries
    }

    /// The typed error strict decode of these bytes reports, or `None`
    /// when the frame is strictly valid.
    #[must_use]
    pub fn strict_error(&self) -> Option<&FrameError> {
        self.strict_error.as_ref()
    }

    /// Number of intact data segments in the plan.
    #[must_use]
    pub fn intact_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, PlanEntry::Data { .. }))
            .count()
    }

    /// Number of parity groups the header geometry implies.
    #[must_use]
    pub fn groups(&self) -> usize {
        frame::group_count(self.claimed_segments, self.parity_g)
    }

    /// Total parity segments the header geometry implies.
    #[must_use]
    pub fn claimed_parity_segments(&self) -> usize {
        self.groups() * self.parity_r as usize
    }
}

/// The error [`frame::segment_at`] reports on parity-marker bytes in a
/// data-segment slot: the marker's trailing group bytes hit the
/// reserved-bytes check first, then the odd sentinel `K`. `head` holds
/// the bytes from the slot on.
fn marker_in_data_slot(head: &[u8], segment: usize) -> FrameError {
    let reserved_nonzero = head.get(2..4).is_some_and(|b| b.iter().any(|&x| x != 0));
    if reserved_nonzero {
        FrameError::Malformed {
            segment,
            what: "reserved segment-header bytes are nonzero",
        }
    } else {
        FrameError::Malformed {
            segment,
            what: "segment block size must be even and at least 4",
        }
    }
}

/// The strict checks, applied to entries as the walk classifies them:
/// the strict verdict without a second pass. Every check and its
/// attribution mirrors the reference parser check-for-check.
struct StrictTracker {
    n: usize,
    p: usize,
    r: usize,
    groups: usize,
    source_len: usize,
    v3: bool,
    /// Running decode allocation (output + per-segment scratch + parity
    /// shards), charged in strict order.
    alloc_budget: usize,
    max_total_alloc: usize,
    covered: usize,
    /// The offset the input must reach for the bomb check to pass (each
    /// claimed segment needs at least a 16-byte header in the body), until
    /// the walk has seen that far or the input ended short of it.
    bomb_end: Option<usize>,
    /// Strict slot of the next entry: data for `0..n`, parity for
    /// `n..n + p`, trailing beyond.
    pos: usize,
    verdict: Option<FrameError>,
}

impl StrictTracker {
    fn new(head: &StreamHeader, limits: &DecodeLimits) -> Self {
        let n = head.segments;
        let p = head.parity_segments;
        let bomb_end = n
            .checked_add(p)
            .and_then(|t| t.checked_mul(SEGMENT_HEADER_BYTES))
            .and_then(|need| need.checked_add(head.header_bytes()))
            .unwrap_or(usize::MAX);
        Self {
            n,
            p,
            r: (head.parity_r as usize).max(1),
            groups: head.groups(),
            source_len: head.source_len,
            v3: head.version == frame::VERSION_V3,
            alloc_budget: frame::trit_alloc_bytes(head.source_len),
            max_total_alloc: limits.max_total_alloc,
            covered: 0,
            bomb_end: Some(bomb_end),
            pos: 0,
            verdict: None,
        }
    }

    /// Settles the bomb check once the input is seen to reach `end` or
    /// to stop there: a frame too short for its claimed segment headers
    /// fails strict decode with that truncation whatever else is wrong.
    fn settle_bomb(&mut self, end: usize, eof: bool) {
        if let Some(need) = self.bomb_end {
            if end >= need {
                self.bomb_end = None;
            } else if eof {
                self.bomb_end = None;
                self.verdict = Some(FrameError::Truncated { offset: end });
            }
        }
    }

    fn charge(&mut self, bytes: usize) -> Result<(), FrameError> {
        self.alloc_budget = self.alloc_budget.saturating_add(bytes);
        if self.alloc_budget > self.max_total_alloc {
            return Err(FrameError::LimitExceeded {
                what: "total decode allocation",
                requested: self.alloc_budget,
                limit: self.max_total_alloc,
            });
        }
        Ok(())
    }

    fn check_covered(&self) -> Result<(), FrameError> {
        if self.covered != self.source_len {
            return Err(FrameError::Malformed {
                segment: self.n,
                what: "segment source lengths do not sum to the header total",
            });
        }
        Ok(())
    }

    /// Applies the strict checks to the entry the walk classified at
    /// `at`: `Ok` for a parsed segment, `Err` for the parse error a
    /// damaged entry begins with. `head` holds the bytes from `at` on —
    /// at least its 16 header bytes, or everything left of the input.
    fn on_entry(&mut self, head: &[u8], at: usize, entry: Result<&PlanEntry<'_>, &FrameError>) {
        if self.verdict.is_none() {
            if let Err(e) = self.check(head, at, entry) {
                self.verdict = Some(e);
            }
        }
    }

    fn check(
        &mut self,
        head: &[u8],
        at: usize,
        entry: Result<&PlanEntry<'_>, &FrameError>,
    ) -> Result<(), FrameError> {
        let has_marker = head.get(..2) == Some(&frame::PARITY_MARKER.to_le_bytes());
        let header_fits = head.len() >= SEGMENT_HEADER_BYTES;
        if self.pos == self.n {
            // Crossing from the data region: the source-length sum is
            // checked before the first parity (or trailing) entry.
            self.check_covered()?;
        }
        let segment = self.pos;
        if segment < self.n {
            match entry {
                Ok(PlanEntry::Data { seg, .. } | PlanEntry::OverBudget { seg, .. }) => {
                    self.charge(
                        frame::trit_alloc_bytes(seg.source_trits)
                            .saturating_add(frame::trit_alloc_bytes(seg.payload_trits)),
                    )?;
                    self.covered = self.covered.checked_add(seg.source_trits).ok_or(
                        FrameError::Malformed {
                            segment,
                            what: "segment source lengths overflow",
                        },
                    )?;
                }
                // A parity header where the strict parser runs
                // `segment_at`: the marker bytes fail its checks.
                Ok(PlanEntry::Parity { .. }) => return Err(marker_in_data_slot(head, segment)),
                // The walk parsed this with `parity_at`; the strict data
                // loop would have run `segment_at`.
                Err(_) if self.v3 && has_marker && header_fits => {
                    return Err(marker_in_data_slot(head, segment))
                }
                Ok(PlanEntry::Damaged { error, .. }) | Err(error) => return Err(error.clone()),
            }
        } else if segment < self.n + self.p {
            match entry {
                Ok(PlanEntry::Parity { par, .. }) => {
                    self.charge(par.payload.len())?;
                    let slot = segment - self.n;
                    if par.group != slot / self.r
                        || par.pindex != slot % self.r
                        || par.group >= self.groups
                    {
                        return Err(FrameError::Malformed {
                            segment,
                            what: "parity segment out of (group, pindex) order",
                        });
                    }
                }
                Ok(PlanEntry::Data { .. } | PlanEntry::OverBudget { .. }) => {
                    return Err(FrameError::Malformed {
                        segment,
                        what: "not a parity segment (missing marker)",
                    })
                }
                Err(_) if !header_fits => return Err(FrameError::Truncated { offset: at }),
                Err(_) if !has_marker => {
                    return Err(FrameError::Malformed {
                        segment,
                        what: "not a parity segment (missing marker)",
                    })
                }
                // The walk already ran `parity_at` here — its verbatim
                // error is the strict parser's too.
                Ok(PlanEntry::Damaged { error, .. }) | Err(error) => return Err(error.clone()),
            }
        } else {
            return Err(FrameError::Malformed {
                segment: self.n,
                what: "trailing bytes after the last segment",
            });
        }
        self.pos += 1;
        Ok(())
    }

    /// The verdict for an input that ended at `end`.
    fn verdict_at(&self, end: usize) -> Option<FrameError> {
        if let Some(v) = &self.verdict {
            return Some(v.clone());
        }
        if self.pos < self.n {
            // The strict data loop would parse at end-of-input next.
            return Some(FrameError::Truncated { offset: end });
        }
        if self.pos == self.n {
            if let Err(e) = self.check_covered() {
                return Some(e);
            }
        }
        if self.pos < self.n + self.p {
            return Some(FrameError::Truncated { offset: end });
        }
        None
    }
}

/// Adds `base` to the offset a parse of a window starting at absolute
/// offset `base` reported, making it absolute.
fn rebase(e: FrameError, base: usize) -> FrameError {
    match e {
        FrameError::Truncated { offset } => FrameError::Truncated {
            offset: offset.saturating_add(base),
        },
        other => other,
    }
}

/// What one [`Walker::step`] produced.
pub(crate) enum Step<'w> {
    /// The next entry, in stream order; the walk has moved past it.
    Entry(PlanEntry<'w>),
    /// The bytes at hand cannot decide the next entry: the window must
    /// reach absolute offset `until` (or the end of the input). Bytes
    /// before `keep` are no longer needed.
    Need {
        /// The first byte the walk still reads.
        keep: usize,
        /// The offset the window must reach.
        until: usize,
    },
    /// The walk is over (in [`BuildMode::FailFast`], as soon as the
    /// strict verdict is fixed).
    Done,
}

/// A damaged entry being resynchronised past.
struct Damage {
    start: usize,
    index: usize,
    claimed: Option<usize>,
    error: FrameError,
    /// Next position to probe.
    probe: usize,
    probes: usize,
    /// The CRC index's work count when the resync began.
    hashed: usize,
}

/// The one walk through a frame body (see the module docs). Positions
/// are absolute stream offsets; each [`step`](Walker::step) gets the
/// bytes at hand as a window starting at some absolute `base`.
pub(crate) struct Walker {
    limits: DecodeLimits,
    mode: BuildMode,
    v3: bool,
    tracker: StrictTracker,
    /// The walk's own allocation budget for classifying over-budget
    /// segments. Unlike the tracker's strict budget it keeps running
    /// past damage — salvage skips expensive segments individually.
    walk_budget: usize,
    scan_cap: usize,
    /// Entries classified so far: the next entry's index.
    index: usize,
    /// Where the next entry starts.
    at: usize,
    damage: Option<Damage>,
    /// The end of the bytes seen so far.
    end: usize,
    done: bool,
}

impl Walker {
    /// Starts the walk of the body behind the validated file header.
    pub(crate) fn new(head: &StreamHeader, limits: &DecodeLimits, mode: BuildMode) -> Self {
        Self {
            limits: *limits,
            mode,
            v3: head.version == frame::VERSION_V3,
            tracker: StrictTracker::new(head, limits),
            walk_budget: frame::trit_alloc_bytes(head.source_len),
            scan_cap: limits
                .max_segments
                .saturating_add(head.parity_segments.min(limits.max_segments)),
            index: 0,
            at: head.header_bytes(),
            damage: None,
            end: head.header_bytes(),
            done: false,
        }
    }

    /// Switches the walk to [`BuildMode::FailFast`].
    pub(crate) fn fail_fast(&mut self) {
        self.mode = BuildMode::FailFast;
    }

    /// The strict verdict so far — final once the walk is
    /// [`Done`](Step::Done).
    pub(crate) fn verdict(&self) -> Option<FrameError> {
        self.tracker.verdict_at(self.end)
    }

    /// Walks on with `window`, the bytes from absolute offset `base` on;
    /// `eof` says whether they run to the end of the input. `window`
    /// must still hold every byte from the last [`Step::Need`]'s `keep`
    /// (or the last entry's end) on, and `crc` must index `window`.
    /// `cap` is the most bytes the caller can hold from an entry's
    /// start: an entry whose size claim runs past it, with `cap` bytes
    /// at hand and the input not yet over, is damage.
    ///
    /// # Errors
    ///
    /// In [`BuildMode::Full`], an exhausted resync-probe budget or more
    /// entries than [`DecodeLimits::max_segments`] allows. Segment-level
    /// damage is a [`PlanEntry::Damaged`], never an error.
    pub(crate) fn step<'w>(
        &mut self,
        window: &'w [u8],
        base: usize,
        eof: bool,
        cap: usize,
        crc: &mut PrefixCrc,
    ) -> Result<Step<'w>, FrameError> {
        let end = base.saturating_add(window.len());
        self.end = end;
        self.tracker.settle_bomb(end, eof);
        loop {
            if self.done {
                return Ok(Step::Done);
            }
            if self.damage.is_some() {
                return self.resync(window, base, eof, crc);
            }
            let fail_fast = self.mode == BuildMode::FailFast;
            if fail_fast && self.tracker.verdict.is_some() {
                // The strict verdict is fixed; the walk only has to see
                // whether the bomb check overrides it.
                if let Some(need) = self.tracker.bomb_end {
                    return Ok(Step::Need {
                        keep: need,
                        until: need,
                    });
                }
                self.done = true;
                continue;
            }
            let at = self.at;
            let r = at.saturating_sub(base);
            let head = window.get(r..).unwrap_or(&[]);
            if head.is_empty() && eof {
                self.done = true;
                continue;
            }
            if head.len() < SEGMENT_HEADER_BYTES && !eof {
                return Ok(Step::Need {
                    keep: at,
                    until: at.saturating_add(SEGMENT_HEADER_BYTES),
                });
            }
            if !fail_fast && self.index >= self.scan_cap {
                let e = FrameError::LimitExceeded {
                    what: "scanned segment count",
                    requested: self.index + 1,
                    limit: self.scan_cap,
                };
                frame::publish_failure_metrics(&e);
                return Err(e);
            }
            let parity = self.v3 && head.get(..2) == Some(&frame::PARITY_MARKER.to_le_bytes());
            // The bytes the parse reads: the claimed payload, unless the
            // header fails first.
            let need = frame::claimed_payload(head, parity, &self.limits)
                .map(|p| at.saturating_add(SEGMENT_HEADER_BYTES).saturating_add(p));
            let index = self.index;
            let parsed = match need {
                Some(need) if need > end && !eof => {
                    if need - at <= cap || end - at < cap {
                        return Ok(Step::Need {
                            keep: at,
                            until: need,
                        });
                    }
                    // A claim past what the caller can hold.
                    Err(FrameError::LimitExceeded {
                        what: "segment size claim",
                        requested: need - at,
                        limit: cap,
                    })
                }
                _ if parity => frame::parity_at(window, r, index, &self.limits, None)
                    .map(|(par, next)| PlanEntry::Parity {
                        par,
                        byte_range: at..base + next,
                    })
                    .map_err(|e| rebase(e, base)),
                _ => frame::segment_at(window, r, index, &self.limits, None)
                    .map(|(seg, next)| self.data_entry(seg, at..base + next))
                    .map_err(|e| rebase(e, base)),
            };
            match parsed {
                Ok(entry) => {
                    self.tracker.on_entry(head, at, Ok(&entry));
                    self.index += 1;
                    self.at = entry.byte_range().end;
                    return Ok(Step::Entry(entry));
                }
                Err(e) => {
                    if let Some(entry) = self.classify(head, at, e, parity, end, crc) {
                        return Ok(Step::Entry(entry));
                    }
                }
            }
        }
    }

    /// Classifies a CRC-valid data segment as decodable or over budget.
    fn data_entry<'w>(
        &mut self,
        seg: ParsedSegment<'w>,
        byte_range: Range<usize>,
    ) -> PlanEntry<'w> {
        let add = frame::trit_alloc_bytes(seg.source_trits)
            .saturating_add(frame::trit_alloc_bytes(seg.payload_trits));
        if self.walk_budget.saturating_add(add) > self.limits.max_total_alloc {
            // Too expensive to decode — classified, not charged.
            if self.mode == BuildMode::Full {
                crate::metrics::publish_count(catalogue::FRAME_LIMIT_REJECTIONS, 1);
                ninec_obs::trace_instant(
                    "over_budget",
                    u32::try_from(self.index).unwrap_or(u32::MAX),
                    ninec_obs::RungKind::None,
                    ninec_obs::TracePayload::None,
                );
            }
            PlanEntry::OverBudget { seg, byte_range }
        } else {
            self.walk_budget = self.walk_budget.saturating_add(add);
            PlanEntry::Data { seg, byte_range }
        }
    }

    /// Records the damaged entry starting at `at`. A fail-fast walk
    /// returns it at once, running to the end of the bytes at hand; a
    /// full walk starts resynchronising past it and returns `None`.
    fn classify(
        &mut self,
        head: &[u8],
        at: usize,
        error: FrameError,
        parity: bool,
        end: usize,
        crc: &PrefixCrc,
    ) -> Option<PlanEntry<'static>> {
        self.tracker.on_entry(head, at, Err(&error));
        // The header fields are untrusted but still useful as a *claim*
        // for sizing the erasure run.
        let claimed = if parity {
            Some(0)
        } else {
            frame::le_u32(head, 4).map(|v| v as usize)
        };
        let index = self.index;
        self.index += 1;
        if self.mode == BuildMode::FailFast {
            // No probing: the verdict above ends the walk.
            self.at = end;
            return Some(PlanEntry::Damaged {
                byte_range: at..end,
                claimed_source_trits: claimed,
                error,
            });
        }
        frame::publish_failure_metrics(&error);
        self.damage = Some(Damage {
            start: at,
            index,
            claimed,
            error,
            probe: at + 1,
            probes: 0,
            hashed: crc.hashed(),
        });
        None
    }

    /// Probes on for the end of the damaged entry in progress.
    fn resync<'w>(
        &mut self,
        window: &'w [u8],
        base: usize,
        eof: bool,
        crc: &mut PrefixCrc,
    ) -> Result<Step<'w>, FrameError> {
        let Some(mut d) = self.damage.take() else {
            return Ok(Step::Done);
        };
        let found = frame::find_resync(
            window,
            d.probe.saturating_sub(base),
            eof,
            self.v3,
            &self.limits,
            &mut d.probes,
            crc,
        );
        let to = match found {
            Ok(Resync::Need { at, until }) => {
                d.probe = base + at;
                self.damage = Some(d);
                return Ok(Step::Need {
                    keep: base + at,
                    until: base + until,
                });
            }
            Ok(Resync::At(r)) => base + r,
            Err(e) => {
                crate::metrics::publish_resync(d.probes, crc.hashed() - d.hashed);
                frame::publish_failure_metrics(&e);
                return Err(e);
            }
        };
        crate::metrics::publish_resync(d.probes, crc.hashed() - d.hashed);
        // The per-segment CRC verdict and the resync probe it forced, on
        // the flight-recorder timeline.
        let seg = u32::try_from(d.index).unwrap_or(u32::MAX);
        ninec_obs::trace_instant(
            "crc_verdict",
            seg,
            ninec_obs::RungKind::None,
            ninec_obs::TracePayload::Crc {
                ok: false,
                claimed_trits: u32::try_from(d.claimed.unwrap_or(0)).unwrap_or(u32::MAX),
            },
        );
        ninec_obs::trace_instant(
            "resync",
            seg,
            ninec_obs::RungKind::None,
            ninec_obs::TracePayload::Resync {
                from: u32::try_from(d.start).unwrap_or(u32::MAX),
                to: u32::try_from(to).unwrap_or(u32::MAX),
            },
        );
        self.at = to;
        Ok(Step::Entry(PlanEntry::Damaged {
            byte_range: d.start..to,
            claimed_source_trits: d.claimed,
            error: d.error,
        }))
    }
}

/// Builds a [`FramePlan`] in one header/CRC scan pass over `bytes`: the
/// walk fed the whole frame as one chunk.
///
/// # Errors
///
/// Only file-level problems are fatal — bad magic, short or CRC-invalid
/// file header, unsupported version, file-level bomb claims, and (in
/// [`BuildMode::Full`]) an exhausted scan or resync-probe budget.
/// Segment-level damage lands in the plan, never in an `Err`.
pub(crate) fn build<'a>(
    bytes: &'a [u8],
    limits: &DecodeLimits,
    mode: BuildMode,
) -> Result<FramePlan<'a>, FrameError> {
    let head = match frame::parse_file_header(bytes, limits) {
        Ok(h) => h,
        Err(e) => {
            frame::publish_failure_metrics(&e);
            return Err(e);
        }
    };
    crate::metrics::publish_count(catalogue::FRAME_SCAN_PASSES, 1);
    let mut walker = Walker::new(&head, limits, mode);
    // Shared by every resync of this walk, so each byte enters it once.
    let mut crc = PrefixCrc::default();
    let mut entries: Vec<PlanEntry<'a>> = Vec::new();
    // At end of input with the whole frame in hand, the walk never asks
    // for more bytes.
    while let Step::Entry(entry) = walker.step(bytes, 0, true, usize::MAX, &mut crc)? {
        entries.push(entry);
    }
    let strict_error = walker.verdict();
    if mode == BuildMode::FailFast {
        // The fail-fast build reports health metrics like the reference
        // parser: once, for the final verdict. (The full walk publishes
        // per damaged range instead.)
        if let Some(e) = &strict_error {
            frame::publish_failure_metrics(e);
        }
    }
    Ok(FramePlan {
        bytes,
        table_lengths: head.table_lengths,
        source_len: head.source_len,
        claimed_segments: head.segments,
        version: head.version,
        parity_g: head.parity_g,
        parity_r: head.parity_r,
        limits: *limits,
        entries,
        strict_error,
    })
}

/// One segment job's share of the frame's output, written in place: the
/// words that lie wholly inside the segment's trit range, through
/// disjoint `&mut` slices of the output's two planes, and the at most
/// two edge words it shares with its neighbours, kept here and OR-ed
/// into the output after the join.
///
/// Words are counted locally, from the output word holding the
/// segment's first trit. The whole words are local words `lo..lo +
/// care.len()`, where `lo` is 1 when the segment starts inside a word:
/// local word 0 is then the head edge. The tail edge is the local word
/// after the whole ones.
#[derive(Debug)]
pub(crate) struct InPlace<'o> {
    care: &'o mut [u64],
    value: &'o mut [u64],
    /// Output trit position of the segment's first trit.
    start: usize,
    /// Trits the segment holds.
    len: usize,
    /// Trits written so far.
    written: usize,
    /// The head and tail edge words, as `(care, value)`.
    edges: [(u64, u64); 2],
}

/// One in-place decode job: the index its errors, fault point and
/// `segment_decode` span carry, its segment, and the output position of
/// its first trit.
pub(crate) type Job<'a> = (usize, ParsedSegment<'a>, usize);

/// A job's slot: its segment's first output trit and the output's words
/// wholly inside its trit range, taken once by its job.
type Slot<'o> = Mutex<Option<(usize, &'o mut [u64], &'o mut [u64])>>;

/// The edge words of one in-place segment job, as `(output word index,
/// care, value)`, ready to be OR-ed into the output.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeWords([(usize, u64, u64); 2]);

impl InPlace<'_> {
    /// Local index of the first whole word.
    #[inline]
    fn lo(&self) -> usize {
        usize::from(!self.start.is_multiple_of(64))
    }

    /// Local word `word`'s two planes: a whole word of the output, or an
    /// edge word kept here.
    #[inline]
    fn word_mut(&mut self, word: usize) -> (&mut u64, &mut u64) {
        let lo = self.lo();
        let i = word.wrapping_sub(lo);
        match (self.care.get_mut(i), self.value.get_mut(i)) {
            (Some(care), Some(value)) => (care, value),
            _ => {
                let (care, value) = &mut self.edges[usize::from(word >= lo)];
                (care, value)
            }
        }
    }

    /// Flips the first trit written — a zero to one, a one or `X` to
    /// zero: the `corrupt` fault point's torn write.
    pub(crate) fn flip_first(&mut self) {
        if self.written > 0 {
            let bit = 1u64 << (self.start % 64);
            let (care, value) = self.word_mut(0);
            let zero = *care & !*value & bit != 0;
            *care |= bit;
            *value = if zero { *value | bit } else { *value & !bit };
        }
    }

    /// The job's edge words, once every trit is written.
    pub(crate) fn finish(self) -> EdgeWords {
        // Only the segment's own bits: its neighbours' and those past the
        // output's end stay zero.
        let first = self.start % 64;
        let mask = |word: usize| {
            let clip = |at: usize| at.clamp(64 * word, 64 * word + 64) - 64 * word;
            low_bits(clip(first + self.len)) & !low_bits(clip(first))
        };
        let tail = self.lo() + self.care.len();
        let (head_mask, tail_mask) = (mask(0), mask(tail));
        let [head, last] = self.edges;
        let word = self.start / 64;
        EdgeWords([
            (word, head.0 & head_mask, head.1 & head_mask),
            (word + tail, last.0 & tail_mask, last.1 & tail_mask),
        ])
    }
}

impl BitSink for InPlace<'_> {
    #[inline]
    fn push_trit(&mut self, t: Trit) {
        self.push_word(u64::from(t.is_care()), u64::from(t == Trit::One), 1);
    }

    #[inline]
    fn push_word(&mut self, care: u64, value: u64, n: usize) {
        // The bits from the next position on are unwritten, so a word
        // first written here is stored, not read: a fresh output page
        // then faults in once, for the write.
        let at = self.start % 64 + self.written;
        let (word, shift) = (at / 64, at % 64);
        let (c, v) = self.word_mut(word);
        if shift == 0 {
            (*c, *v) = (care, value);
        } else {
            *c |= care << shift;
            *v |= value << shift;
        }
        if shift + n > 64 {
            let (c, v) = self.word_mut(word + 1);
            (*c, *v) = (care >> (64 - shift), value >> (64 - shift));
        }
        self.written += n;
    }
}

impl EdgeWords {
    /// ORs the edge words into the output's planes.
    fn merge_into(self, care: &mut [u64], value: &mut [u64]) {
        for (word, c, v) in self.0 {
            if let (Some(care), Some(value)) = (care.get_mut(word), value.get_mut(word)) {
                *care |= c;
                *value |= v;
            }
        }
    }
}

/// The output words that lie wholly inside the trits `start..start +
/// len`.
fn whole_words(start: usize, len: usize) -> Range<usize> {
    let first = start.div_ceil(64);
    first..(start.saturating_add(len) / 64).max(first)
}

/// Splits the output words into one [`Slot`] per job, in order: each
/// takes the words wholly inside its trit range. A slot is `None` only
/// if the words run out or the ranges overlap, which the callers'
/// layouts rule out.
fn in_place_slots<'o>(
    mut care: &'o mut [u64],
    mut value: &'o mut [u64],
    jobs: &[Job<'_>],
) -> Vec<Slot<'o>> {
    let mut slots = Vec::with_capacity(jobs.len());
    // Output word index of `care[0]` and `value[0]`.
    let mut cursor = 0usize;
    for &(_, seg, start) in jobs {
        let whole = whole_words(start, seg.source_trits);
        let split = |words: &'o mut [u64]| {
            let (_, rest) = words.split_at_mut_checked(whole.start.checked_sub(cursor)?)?;
            rest.split_at_mut_checked(whole.len())
        };
        let slot = match (split(care), split(value)) {
            (Some((c, care_rest)), Some((v, value_rest))) => {
                (care, value, cursor) = (care_rest, value_rest, whole.end);
                Some((start, c, v))
            }
            _ => {
                (care, value) = (&mut [], &mut []);
                None
            }
        };
        slots.push(Mutex::new(slot));
    }
    slots
}

/// Decodes `jobs` on the engine's executor, each straight into its trit
/// range of `out`, whose words already cover every range: a job writes
/// the words wholly inside its range and hands back its edge words,
/// which are merged after the join. A job that fails, panics or is
/// cancelled leaves its range `X`: its whole words are zeroed and its
/// edge words dropped. Returns each job's verdict, in job order. The
/// jobs' telemetry goes into `tally`, which the caller publishes; their
/// panics and cancellations are published here.
pub(crate) fn decode_in_place(
    engine: &Engine,
    jobs: &[Job<'_>],
    table: &DecodeTable,
    out: &mut TritVec,
    tally: &mut DecodeTally,
) -> Vec<JobOutcome<Result<(), DecodeError>>> {
    let (care, value) = out.planes_mut();
    let slots = in_place_slots(care, value, jobs);
    let results = exec::run_cancellable(engine.threads(), jobs.len(), engine.cancel(), |j| {
        let (i, seg, _) = &jobs[j];
        let slot = slots[j]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match slot {
            Some((start, care, value)) => {
                let sink = InPlace {
                    care,
                    value,
                    start,
                    len: seg.source_trits,
                    written: 0,
                    edges: [(0, 0); 2],
                };
                engine.decode_one_segment(seg, *i, table, sink)
            }
            // Unreachable: every slot holds its words until its one job.
            None => SegmentDecode {
                trits: Err(DecodeError::WorkerPanicked { segment: *i }),
                run: Default::default(),
                nanos: None,
            },
        }
    });
    drop(slots);
    let (care, value) = out.planes_mut();
    let (mut panics, mut cancelled) = (0u64, 0u64);
    let verdicts = jobs
        .iter()
        .zip(results)
        .map(|(&(_, seg, start), r)| {
            if let JobOutcome::Done(d) = &r {
                d.tally_into(tally);
            }
            let verdict = match r {
                JobOutcome::Done(SegmentDecode {
                    trits: Ok(edges), ..
                }) => {
                    edges.merge_into(care, value);
                    return JobOutcome::Done(Ok(()));
                }
                JobOutcome::Done(SegmentDecode { trits: Err(e), .. }) => JobOutcome::Done(Err(e)),
                JobOutcome::Panicked(p) => {
                    panics += 1;
                    JobOutcome::Panicked(p)
                }
                JobOutcome::Cancelled => {
                    cancelled += 1;
                    JobOutcome::Cancelled
                }
            };
            // The job may have written some of its whole words.
            let whole = whole_words(start, seg.source_trits);
            for words in [&mut *care, &mut *value] {
                if let Some(words) = words.get_mut(whole.clone()) {
                    words.fill(0);
                }
            }
            verdict
        })
        .collect();
    crate::metrics::publish_count(catalogue::ENGINE_WORKER_PANICS, panics);
    crate::metrics::publish_count(catalogue::ENGINE_CANCELLED_JOBS, cancelled);
    verdicts
}

/// Strict decode of `segs`, whose trit ranges follow each other from
/// `out.len()` on, appended to `out` — or the strict failure, leaving
/// `out` as it was: a tripped cancel token first, then the first segment
/// error or worker panic in order. `out` grows once, by the segments'
/// source trits, and each job decodes straight into its share of it
/// ([`decode_in_place`]).
pub(crate) fn decode_strict(
    engine: &Engine,
    segs: &[Job<'_>],
    table: &DecodeTable,
    out: &mut TritVec,
    tally: &mut DecodeTally,
) -> Result<(), DecodeError> {
    let base = out.len();
    out.grow_x(segs.iter().map(|(_, seg, _)| seg.source_trits).sum());
    let mut first_err: Option<DecodeError> = None;
    let mut cancelled = false;
    for (&(i, ..), verdict) in segs
        .iter()
        .zip(decode_in_place(engine, segs, table, out, tally))
    {
        match verdict {
            JobOutcome::Done(Ok(())) => {}
            JobOutcome::Done(Err(e)) => {
                first_err.get_or_insert(e);
            }
            JobOutcome::Panicked(_) => {
                first_err.get_or_insert(DecodeError::WorkerPanicked { segment: i });
            }
            JobOutcome::Cancelled => cancelled = true,
        }
    }
    let failed = if cancelled {
        // Cancellation beats per-segment errors in the strict verdict:
        // the caller asked us to stop, so say so — with the trip cause
        // (deadline vs explicit hang-up) typed.
        let trip = engine
            .cancel()
            .and_then(cancel::CancelToken::trip)
            .unwrap_or(cancel::Trip::Cancelled);
        Some(trip.decode_error())
    } else {
        first_err
    };
    match failed {
        Some(e) => {
            out.truncate(base);
            Err(e)
        }
        None => Ok(()),
    }
}

/// Executes the strict rung against a plan: fail closed on the strict
/// verdict, otherwise decode the `Data` entries concurrently — the CRC
/// verdicts are already in the plan, so nothing is scanned twice.
pub(crate) fn execute_strict(
    engine: &Engine,
    plan: &FramePlan<'_>,
) -> Result<SalvageReport, DecodeError> {
    if let Some(e) = &plan.strict_error {
        return Err(e.clone().into());
    }
    let table = DecodeTable::for_lengths(&plan.table_lengths).ok_or(FrameError::BadTable)?;
    // A strictly valid plan is exactly `n` data entries followed by the
    // parity segments, so the data ordinal equals the segment index.
    let mut end = 0usize;
    let mut segs: Vec<Job<'_>> = Vec::with_capacity(plan.claimed_segments);
    segs.extend(
        plan.entries
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Data { seg, .. } => Some(*seg),
                _ => None,
            })
            .enumerate()
            .map(|(i, seg)| {
                let start = end;
                end += seg.source_trits;
                (i, seg, start)
            }),
    );
    // Sized by the one grow of `decode_strict`.
    let mut trits = TritVec::new();
    let mut tally = DecodeTally::default();
    let decoded = decode_strict(engine, &segs, &table, &mut trits, &mut tally);
    tally.publish();
    decoded?;
    Ok(SalvageReport {
        trits,
        recovered_segments: segs.len(),
        total_segments: segs.len(),
        damaged: Vec::new(),
    })
}

impl Engine {
    /// Builds the complete decode plan for a `9CSF` frame in **one**
    /// header/CRC scan pass: every body byte classified, parity
    /// membership resolved, and the strict verdict pinned. Feed the plan
    /// to [`execute_plan`](Engine::execute_plan) — running the whole
    /// strict → repair → salvage ladder against one plan costs exactly
    /// one scan pass (the `ninec.frame.scan_passes` counter proves it).
    ///
    /// # Errors
    ///
    /// Only file-level problems: bad magic, a short or CRC-invalid file
    /// header, an unsupported version, file-level
    /// [`DecodeError::LimitExceeded`] bombs (including an exhausted
    /// resync-probe budget). Segment-level damage lands in the plan.
    pub fn build_plan<'a>(&self, bytes: &'a [u8]) -> Result<FramePlan<'a>, DecodeError> {
        let _span = catalogue::SPAN_ENGINE_BUILD_PLAN.start();
        build(bytes, self.limits(), BuildMode::Full).map_err(DecodeError::from)
    }

    /// Executes one rung of the decode ladder against a plan built by
    /// [`build_plan`](Engine::build_plan) — without re-scanning the
    /// frame. [`Policy::Strict`] fails closed exactly like
    /// [`decode_frame`](Engine::decode_frame). [`Policy::Repair`]
    /// rebuilds up to `r` damaged member segments per v3 parity group
    /// byte-exactly (GF(256) Reed–Solomon erasure decoding at the
    /// CRC-certified erasure positions, each rebuilt segment re-verified
    /// against its own CRC), then salvages the rest; [`Policy::Salvage`]
    /// skips reconstruction. Both recover every intact segment
    /// byte-identically and erase every damaged byte range to an `X`-trit
    /// run at its block-aligned offset, so the report's `trits` is always
    /// exactly the header's `source_len` long; repaired segments appear
    /// in the damage map as [`DamageReason::RepairedBy`].
    ///
    /// # Errors
    ///
    /// [`Policy::Strict`]: the plan's strict verdict or any per-segment
    /// decode failure. [`Policy::Repair`] / [`Policy::Salvage`]: only a
    /// Kraft-invalid stored code table — everything else degrades into
    /// the report's damage map.
    pub fn execute_plan(
        &self,
        plan: &FramePlan<'_>,
        policy: Policy,
    ) -> Result<SalvageReport, DecodeError> {
        let _span = catalogue::SPAN_ENGINE_EXECUTE_PLAN.start();
        match policy {
            Policy::Strict => execute_strict(self, plan),
            Policy::Repair => super::salvage::execute(self, plan, true),
            Policy::Salvage => super::salvage::execute(self, plan, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::frame::{HEADER_BYTES, HEADER_BYTES_V3, SEGMENT_HEADER_BYTES};

    fn tv(s: &str) -> TritVec {
        s.parse().expect("valid trit literal")
    }

    fn sample_stream() -> TritVec {
        tv(&"0X0X01X001X0101X111111110000X1111X0110XX".repeat(12))
    }

    fn engine() -> Engine {
        Engine::builder().threads(2).segment_bits(64).build()
    }

    fn v3_engine(g: u8, r: u8) -> Engine {
        Engine::builder()
            .threads(2)
            .segment_bits(64)
            .parity(g, r)
            .build()
    }

    #[test]
    fn clean_frames_plan_with_no_strict_error() {
        let stream = sample_stream();
        for e in [engine(), v3_engine(4, 1)] {
            let bytes = e.encode_frame(8, &stream).expect("valid K");
            let plan = e.build_plan(&bytes).expect("plans");
            assert!(plan.strict_error().is_none());
            assert_eq!(plan.intact_count(), plan.claimed_segments());
            assert_eq!(
                plan.entries().len(),
                plan.claimed_segments() + plan.claimed_parity_segments()
            );
            // Strict execution against the plan matches decode_frame.
            let report = e.execute_plan(&plan, Policy::Strict).expect("decodes");
            assert_eq!(report.trits, e.decode_frame(&bytes).expect("decodes"));
            assert!(report.damaged.is_empty());
        }
    }

    #[test]
    fn one_plan_drives_the_whole_ladder() {
        let stream = sample_stream();
        let e = v3_engine(4, 1);
        let bytes = e.encode_frame(8, &stream).expect("valid K");
        let clean = e.decode_frame(&bytes).expect("decodes");
        let mut bad = bytes.clone();
        bad[HEADER_BYTES_V3 + SEGMENT_HEADER_BYTES] ^= 0x55;
        // Build once; strict fails, repair on the same plan is bit-exact.
        let plan = e.build_plan(&bad).expect("plans");
        assert!(matches!(
            e.execute_plan(&plan, Policy::Strict),
            Err(DecodeError::Frame(FrameError::BadCrc { segment: 0 }))
        ));
        let repaired = e.execute_plan(&plan, Policy::Repair).expect("repairs");
        assert!(repaired.is_full_recovery());
        assert_eq!(repaired.trits, clean);
        assert_eq!(repaired.repaired_segments(), 1);
        // Salvage from the same plan erases instead.
        let salvaged = e.execute_plan(&plan, Policy::Salvage).expect("salvages");
        assert!(!salvaged.is_full_recovery());
        assert_eq!(salvaged.trits.len(), clean.len());
    }

    #[test]
    fn fail_fast_build_stops_at_the_first_damage() {
        let stream = sample_stream();
        let e = engine();
        let bytes = e.encode_frame(8, &stream).expect("valid K");
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55;
        let fast = build(&bad, &DecodeLimits::default(), BuildMode::FailFast).expect("plans");
        assert_eq!(fast.entries.len(), 1, "stops at the damaged entry");
        assert!(matches!(
            fast.strict_error,
            Some(FrameError::BadCrc { segment: 0 })
        ));
        let full = build(&bad, &DecodeLimits::default(), BuildMode::Full).expect("plans");
        assert!(full.entries.len() > 1, "full walk resynchronises");
        assert_eq!(fast.strict_error, full.strict_error);
    }

    #[test]
    fn damaged_entries_carry_their_salvage_reading() {
        let stream = sample_stream();
        let e = v3_engine(4, 1);
        let bytes = e.encode_frame(8, &stream).expect("valid K");
        let mut bad = bytes.clone();
        bad[HEADER_BYTES_V3 + SEGMENT_HEADER_BYTES] ^= 0x55;
        let plan = e.build_plan(&bad).expect("plans");
        assert_eq!(
            plan.entries()[0].damage(),
            Some((DamageReason::BadCrc, Some(64)))
        );
        assert!(plan.entries()[1..]
            .iter()
            .all(|entry| entry.damage().is_none()));
        // A segment too expensive to decode reads as a limit erasure.
        let tight = DecodeLimits {
            max_total_alloc: frame::trit_alloc_bytes(stream.len()) + 8,
            ..DecodeLimits::default()
        };
        let plan = build(&bytes, &tight, BuildMode::Full).expect("plans");
        assert!(matches!(
            plan.entries()[0].damage(),
            Some((
                DamageReason::LimitExceeded("total decode allocation"),
                Some(64)
            ))
        ));
    }
}
