//! Salvage- and repair-mode frame decode: the bottom two rungs of the
//! decode ladder.
//!
//! The strict [`Engine::decode_frame`] is fail-closed: one bad CRC
//! aborts the whole decode. That is the right default for a codec, but
//! the paper's setting — a reduced pin-count ATE link feeding an on-chip
//! FSM — is a hostile channel where a single flipped or dropped bit
//! desynchronises everything downstream. The decode ladder therefore
//! degrades in two steps:
//!
//! 1. **Repair** ([`Policy::Repair`], v3 frames): the CRC-verified
//!    plan pins down exactly which segments are damaged — *erasure positions*, the easy half of Reed–Solomon
//!    decoding. Each parity group rebuilds up to `r` erased member
//!    segments byte-exactly over GF(256)
//!    ([`crate::engine::ecc::ParityCoder`]), every reconstructed segment
//!    is re-verified against its own CRC before acceptance, and repaired
//!    segments decode in parallel on the same panic-isolated pool as
//!    intact ones. Their damage-map entries carry
//!    [`DamageReason::RepairedBy`] — informational, not loss.
//! 2. **Salvage** ([`Policy::Salvage`], always available): whatever
//!    repair could not
//!    reconstruct — over-budget erasures, v2 frames, groups whose parity
//!    itself died — is resynchronised past and materialised as `X`-trit
//!    erasure runs at block-aligned offsets, in the spirit of the
//!    X-tolerant compaction line (Fujiwara & Colbourn's combinatorial
//!    X-codes): corrupted values become erasures to localise, never
//!    silent wrong bits.
//!
//! The file header itself must be sound (magic, version, header CRC,
//! non-bomb claims): with an untrustworthy code table or total length
//! there is nothing sound to salvage against, so those remain hard
//! errors — as does a Kraft-invalid stored table.
//!
//! Both rungs execute directly on the [`PlanEntry`] list of a
//! [`FramePlan`] built in **one** header/CRC scan pass
//! ([`Engine::build_plan`]), through [`Engine::execute_plan`]. Work is
//! scheduled on the two-level priority executor: intact-segment decodes run at
//! [`Priority::High`] (they are needed at every rung), parity
//! reconstruction of damaged groups backfills at [`Priority::Low`], and
//! rebuilt segments decode in a short follow-up batch.

use crate::code::CodeTable;
use crate::decode::DecodeError;
use crate::engine::ecc::ParityCoder;
use crate::engine::exec::{self, JobOutcome, Priority};
use crate::engine::frame::{self, DamageReason, ParsedParity};
#[cfg(doc)]
use crate::engine::plan::Policy;
use crate::engine::plan::{self, FramePlan, PlanEntry};
use crate::engine::reader::OwnedSegment;
use crate::engine::Engine;
use ninec_testdata::trit::{Trit, TritVec};
use std::collections::HashMap;
use std::ops::Range;

/// One damaged (or repaired) region of a salvaged frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DamagedSegment {
    /// Position of the region in the scan walk (segment index for
    /// frames whose structure survived).
    pub index: usize,
    /// The frame bytes written off (or, for a repaired segment, the
    /// bytes that were damaged on the wire).
    pub byte_range: Range<usize>,
    /// The output trits this region covers in [`SalvageReport::trits`]:
    /// erased to `X` for terminal damage, **real decoded trits** when
    /// `reason` is [`DamageReason::RepairedBy`].
    pub trit_range: Range<usize>,
    /// Why the region was damaged — or proof it was repaired.
    pub reason: DamageReason,
}

/// The outcome of a salvage- or repair-mode frame decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// The decoded stream, exactly `source_len` trits long: recovered
    /// and repaired segments byte-identical to a clean decode, terminal
    /// damage as `X`-trit erasure runs at known block-aligned offsets.
    pub trits: TritVec,
    /// Segments recovered byte-identically (intact + repaired).
    pub recovered_segments: usize,
    /// Total scan entries contributing output (recovered + damaged).
    pub total_segments: usize,
    /// The damage map, in stream order. Entries whose reason is
    /// [`DamageReason::RepairedBy`] are informational — their trits are
    /// real.
    pub damaged: Vec<DamagedSegment>,
}

impl SalvageReport {
    /// `true` when every output trit is real — nothing was erased. Wire
    /// damage that was fully repaired ([`DamageReason::RepairedBy`]) or
    /// that covered no output trits (e.g. a corrupted parity segment)
    /// still counts as full recovery: the decoded stream is bit-exact.
    #[must_use]
    pub fn is_full_recovery(&self) -> bool {
        self.damaged
            .iter()
            .all(|d| d.reason.is_repaired() || d.trit_range.is_empty())
    }

    /// Segments rebuilt byte-exactly from parity
    /// ([`DamageReason::RepairedBy`] entries).
    #[must_use]
    pub fn repaired_segments(&self) -> usize {
        self.damaged
            .iter()
            .filter(|d| d.reason.is_repaired())
            .count()
    }
}

/// What one plan entry contributes to the output.
enum Contribution<'a> {
    /// Decode this segment (intact on the wire, or rebuilt from parity
    /// when `repaired` is set).
    Decode {
        seg: frame::ParsedSegment<'a>,
        byte_range: Range<usize>,
        trits: usize,
        /// `Some((group, parity_used))` when the segment bytes came out
        /// of a parity reconstruction instead of the wire.
        repaired: Option<(usize, usize)>,
    },
    /// Erase `trits` trits for this damaged range.
    Erase {
        byte_range: Range<usize>,
        reason: DamageReason,
        trits: usize,
    },
}

impl Contribution<'_> {
    fn trits(&self) -> usize {
        match self {
            Contribution::Decode { trits, .. } | Contribution::Erase { trits, .. } => *trits,
        }
    }
}

/// Resolves how many erasure trits each damaged entry stands for.
///
/// The header's `source_len` is CRC-trusted; the intact segments'
/// lengths are CRC-trusted; the gap between them must be distributed
/// over the damaged entries. Their own headers are *untrusted claims*:
/// use them when they are mutually consistent with the gap, fall back
/// to proportional-by-claim (sequential, last-takes-rest) otherwise.
fn resolve_erasures(claims: &[Option<usize>], remaining: usize) -> Vec<usize> {
    if claims.is_empty() {
        return Vec::new();
    }
    if claims.len() == 1 {
        // A single damaged region must be the whole gap, whatever its
        // corrupted header claims.
        return vec![remaining];
    }
    let claim_sum = claims
        .iter()
        .try_fold(0usize, |acc, c| acc.checked_add((*c)?));
    if claim_sum == Some(remaining) {
        // All claims present and consistent with the trusted totals.
        return claims.iter().map(|c| c.unwrap_or(0)).collect();
    }
    // Inconsistent claims: honour them best-effort in order, clamped to
    // the budget, and give the last entry whatever is left so the output
    // length always matches the trusted header total.
    let mut out = Vec::with_capacity(claims.len());
    let mut left = remaining;
    for (j, c) in claims.iter().enumerate() {
        let take = if j + 1 == claims.len() {
            left
        } else {
            c.unwrap_or(0).min(left)
        };
        out.push(take);
        left -= take;
    }
    out
}

/// One segment rebuilt from parity — the reconstructed shard bytes
/// (header + payload + zero pad) with the fields of their one CRC-verified
/// parse, indexed by the plan entry it replaces — and the provenance to
/// report.
struct Rebuilt {
    seg: OwnedSegment,
    /// Parity group that produced it.
    group: usize,
    /// Parity shards the reconstruction consumed.
    parity_used: usize,
}

/// Precomputed repair-rung structure: the plan and the group coder.
/// `None` when repair cannot run soundly.
///
/// Repair only runs when the plan's structure is **unambiguous**:
/// exactly `claimed_segments + claimed_parity_segments` entries, so
/// entry position maps 1:1 onto segment position and the erasure
/// positions are certain. Anything else (merged damage ranges, spliced
/// frames) falls through to plain salvage — repair must never guess.
struct RepairCtx<'s, 'a> {
    plan: &'s FramePlan<'a>,
    coder: ParityCoder,
    n: usize,
    g: usize,
    r: usize,
    groups: usize,
}

fn repair_context<'s, 'a>(plan: &'s FramePlan<'a>) -> Option<RepairCtx<'s, 'a>> {
    let n = plan.claimed_segments;
    let g = plan.parity_g as usize;
    let r = plan.parity_r as usize;
    let groups = plan.groups();
    if r == 0 || groups == 0 || plan.entries.len() != n + plan.claimed_parity_segments() {
        return None;
    }
    // Header geometry was already validated; stay total anyway.
    let coder = ParityCoder::new(g, r).ok()?;
    Some(RepairCtx {
        plan,
        coder,
        n,
        g,
        r,
        groups,
    })
}

/// Attempts RS reconstruction of parity group `q`'s damaged members.
/// Returns the CRC-verified rebuilds plus the count of members that
/// stayed unrepairable (feeding `ninec.ecc.repair_failures`). Runs as a
/// [`Priority::Low`] executor job — intact decodes always go first.
fn repair_group(
    bytes: &[u8],
    ctx: &RepairCtx<'_, '_>,
    q: usize,
    limits: &frame::DecodeLimits,
) -> (Vec<Rebuilt>, u64) {
    let (n, g, r, groups) = (ctx.n, ctx.g, ctx.r, ctx.groups);
    let entries = &ctx.plan.entries;
    let mut rebuilt = Vec::new();
    let mut failures = 0u64;
    // Member entry indices of this group, in shard-slot order.
    let members: Vec<usize> = frame::group_members(q, n, groups).collect();
    // Entry `n + q*r + j` should be parity `(q, j)`; mis-labelled or
    // damaged parity slots are simply absent.
    let group_parity: Vec<Option<&ParsedParity<'_>>> = (0..r)
        .map(|j| match &entries[n + q * r + j] {
            PlanEntry::Parity { par, .. } if par.group == q && par.pindex == j => Some(par),
            _ => None,
        })
        .collect();
    // The group's shard length comes from its (CRC-trusted) parity
    // headers; all intact parity shards must agree.
    let mut shard_len: Option<usize> = None;
    let mut consistent = true;
    for par in group_parity.iter().flatten() {
        match shard_len {
            None => shard_len = Some(par.payload.len()),
            Some(l) if l == par.payload.len() => {}
            Some(_) => consistent = false,
        }
    }
    let (Some(shard_len), true) = (shard_len, consistent) else {
        failures += members
            .iter()
            .filter(|&&m| entries[m].damage().is_some())
            .count() as u64;
        return (rebuilt, failures);
    };
    // Assemble the g + r shard slots: real members (intact = present,
    // damaged = erased), virtual zero members of a short group, then
    // parity. A surviving member longer than the shard length means
    // the parity cannot cover it — inconsistent, bail on this group.
    let mut slots: Vec<Option<&[u8]>> = Vec::with_capacity(g + r);
    let mut erased = 0usize;
    let mut sane = true;
    for slot in 0..g {
        let idx = q + slot * groups;
        if idx >= n {
            slots.push(Some(&[])); // virtual zero member
            continue;
        }
        match &entries[idx] {
            PlanEntry::Data { byte_range, .. } => {
                if byte_range.len() > shard_len {
                    sane = false;
                }
                // Plan byte ranges always index the planned bytes;
                // `get` keeps this total regardless.
                slots.push(bytes.get(byte_range.clone()));
            }
            PlanEntry::OverBudget { .. } | PlanEntry::Damaged { .. } => {
                erased += 1;
                slots.push(None);
            }
            PlanEntry::Parity { .. } => sane = false, // impossible slot
        }
    }
    for par in &group_parity {
        slots.push(par.map(|p| p.payload));
    }
    if !sane || erased == 0 {
        if erased > 0 {
            failures += erased as u64;
        }
        return (rebuilt, failures);
    }
    match ctx.coder.reconstruct(&slots, shard_len) {
        Ok(recovered) => {
            for (slot, shard) in recovered {
                let idx = q + slot * groups;
                // Accept only if the rebuilt shard parses as a CRC-valid
                // segment at offset 0 (the shard is the segment's own
                // header + payload + zero pad). This is the segment's
                // one and only parse — the decode stage reuses its
                // verified fields via `OwnedSegment::view`.
                match frame::segment_at(&shard, 0, idx, limits, None) {
                    Ok((seg, _)) => {
                        let (k, source_trits, payload_trits) =
                            (seg.k, seg.source_trits, seg.payload_trits);
                        rebuilt.push(Rebuilt {
                            seg: OwnedSegment {
                                index: idx,
                                k,
                                source_trits,
                                payload_trits,
                                bytes: shard,
                            },
                            group: q,
                            parity_used: erased,
                        });
                    }
                    Err(_) => failures += 1,
                }
            }
        }
        Err(_) => failures += erased as u64,
    }
    (rebuilt, failures)
}

/// The first executor run's per-job outcome: an intact segment's decode
/// (High priority) or one parity group's reconstruction (Low priority).
enum StageOut {
    Decoded(Result<TritVec, DecodeError>),
    Rebuilt(Vec<Rebuilt>, u64),
}

/// Executes the repair (`repair = true`) or salvage rung directly on the
/// entries of an already-built [`FramePlan`] — no byte of the frame is
/// re-scanned or re-CRC'd here. Backs [`Engine::execute_plan`] at
/// [`Policy::Repair`](crate::engine::plan::Policy::Repair) /
/// [`Policy::Salvage`](crate::engine::plan::Policy::Salvage).
pub(crate) fn execute(
    engine: &Engine,
    plan: &FramePlan<'_>,
    repair: bool,
) -> Result<SalvageReport, DecodeError> {
    let bytes = plan.bytes();
    let table =
        CodeTable::from_lengths(&plan.table_lengths).map_err(|_| frame::FrameError::BadTable)?;
    let source_len = plan.source_len;
    let limits = engine.limits();

    // Stage 1, one prioritized executor run: intact-segment decodes at
    // High priority (they are the critical path of every rung), parity
    // reconstruction of each damaged group backfilling at Low. Each
    // intact job is keyed by its *data ordinal* — the count of preceding
    // non-parity entries, which equals its output-plan index below — so
    // faultpoint and error attribution match the legacy single-batch
    // schedule exactly.
    let mut intact: Vec<(usize, frame::ParsedSegment<'_>)> = Vec::new();
    {
        let mut ordinal = 0usize;
        for entry in &plan.entries {
            match entry {
                PlanEntry::Data { seg, .. } => {
                    intact.push((ordinal, *seg));
                    ordinal += 1;
                }
                PlanEntry::OverBudget { .. } | PlanEntry::Damaged { .. } => ordinal += 1,
                PlanEntry::Parity { .. } => {}
            }
        }
    }
    let ctx = if repair && plan.parity_g > 0 {
        repair_context(plan)
    } else {
        None
    };
    let damaged_groups: Vec<usize> = match &ctx {
        Some(c) => (0..c.groups)
            .filter(|&q| {
                frame::group_members(q, c.n, c.groups).any(|m| c.plan.entries[m].damage().is_some())
            })
            .collect(),
        None => Vec::new(),
    };
    let boundary = intact.len();
    let results = exec::run_cancellable(
        engine.threads(),
        boundary + damaged_groups.len(),
        |i| {
            if i < boundary {
                Priority::High
            } else {
                Priority::Low
            }
        },
        engine.cancel(),
        |i| {
            if i < boundary {
                let (ordinal, seg) = &intact[i];
                let _seg_span = ninec_obs::trace_span_scope(
                    "segment_decode",
                    u32::try_from(*ordinal).unwrap_or(u32::MAX),
                    ninec_obs::TracePayload::None,
                );
                StageOut::Decoded(engine.decode_one_segment(seg, *ordinal, &table))
            } else {
                let group = damaged_groups[i - boundary];
                let _grp_span = ninec_obs::trace_span_scope(
                    "repair_group",
                    ninec_obs::NO_SEGMENT,
                    ninec_obs::TracePayload::Group {
                        group: u32::try_from(group).unwrap_or(u32::MAX),
                    },
                );
                match &ctx {
                    Some(c) => {
                        let (rb, failures) = repair_group(bytes, c, group, limits);
                        StageOut::Rebuilt(rb, failures)
                    }
                    None => StageOut::Rebuilt(Vec::new(), 0),
                }
            }
        },
    );
    let mut intact_results: HashMap<usize, JobOutcome<Result<TritVec, DecodeError>>> =
        HashMap::with_capacity(boundary);
    let mut rebuilt: Vec<Rebuilt> = Vec::new();
    let mut repair_failures = 0u64;
    let mut panics = 0u64;
    let mut cancelled = 0u64;
    for (i, r) in results.into_iter().enumerate() {
        match r {
            JobOutcome::Done(StageOut::Decoded(d)) => {
                intact_results.insert(intact[i].0, JobOutcome::Done(d));
            }
            JobOutcome::Done(StageOut::Rebuilt(rb, fails)) => {
                rebuilt.extend(rb);
                repair_failures += fails;
            }
            JobOutcome::Panicked(p) => {
                if i < boundary {
                    intact_results.insert(intact[i].0, JobOutcome::Panicked(p));
                } else {
                    // A panicking repair job degrades its whole group to
                    // plain salvage; the members stay erased.
                    panics += 1;
                }
            }
            JobOutcome::Cancelled => {
                if i < boundary {
                    // An abandoned intact decode erases to X below, with
                    // the cancellation typed in the damage map.
                    intact_results.insert(intact[i].0, JobOutcome::Cancelled);
                }
                // A cancelled repair job degrades its whole group to
                // plain salvage, exactly like a panicking one: the
                // members stay erased with their original reasons.
            }
        }
    }
    crate::metrics::publish_count(crate::metrics::ECC_REPAIR_FAILURES, repair_failures);
    let repaired_at: HashMap<usize, &Rebuilt> =
        rebuilt.iter().map(|rb| (rb.seg.index, rb)).collect();
    crate::metrics::publish_count(
        crate::metrics::ECC_REPAIRED_SEGMENTS,
        repaired_at.len() as u64,
    );

    // Trusted lengths: intact + repaired segments. Untrusted:
    // unrepaired damaged claims.
    let mut intact_sum = 0usize;
    let mut claims: Vec<Option<usize>> = Vec::new();
    for (i, entry) in plan.entries.iter().enumerate() {
        match (entry, repaired_at.get(&i)) {
            (PlanEntry::Data { seg, .. }, _) => {
                intact_sum = intact_sum.saturating_add(seg.source_trits)
            }
            (PlanEntry::Parity { .. }, _) => {}
            (_, Some(rb)) => intact_sum = intact_sum.saturating_add(rb.seg.source_trits),
            (damaged, None) => claims.extend(damaged.damage().map(|(_, claimed)| claimed)),
        }
    }
    let remaining = source_len.saturating_sub(intact_sum);
    let erase_lens = resolve_erasures(&claims, remaining);

    // Build the output plan, clipping at the trusted source_len: an
    // entry that would overshoot (duplicated/spliced segments) is
    // erased and reported as a header mismatch rather than silently
    // growing the output. Intact parity segments contribute nothing.
    let mut plans: Vec<Contribution<'_>> = Vec::with_capacity(plan.entries.len() + 1);
    let mut offset = 0usize;
    let mut erase_iter = erase_lens.into_iter();
    for (i, entry) in plan.entries.iter().enumerate() {
        let byte_range = entry.byte_range();
        match (entry, entry.damage()) {
            (PlanEntry::Data { seg, .. }, _) => {
                let want = seg.source_trits;
                if offset.saturating_add(want) <= source_len {
                    plans.push(Contribution::Decode {
                        seg: *seg,
                        byte_range,
                        trits: want,
                        repaired: None,
                    });
                    offset += want;
                } else {
                    // Doesn't fit the trusted total: header mismatch.
                    let take = source_len - offset;
                    plans.push(Contribution::Erase {
                        byte_range,
                        reason: DamageReason::HeaderMismatch(
                            "segment exceeds the header's source-length total",
                        ),
                        trits: take,
                    });
                    offset += take;
                }
            }
            (_, Some((reason, _))) => {
                if let Some(rb) = repaired_at.get(&i) {
                    let want = rb.seg.source_trits;
                    if offset.saturating_add(want) <= source_len {
                        plans.push(Contribution::Decode {
                            seg: rb.seg.view(),
                            byte_range: byte_range.clone(),
                            trits: want,
                            repaired: Some((rb.group, rb.parity_used)),
                        });
                        offset += want;
                        continue;
                    }
                    // Repaired but doesn't fit: fall through to erase.
                }
                let want = erase_iter.next().unwrap_or(0);
                let take = want.min(source_len - offset);
                plans.push(Contribution::Erase {
                    byte_range,
                    reason,
                    trits: take,
                });
                offset += take;
            }
            // Intact parity shards contribute no output trits.
            _ => {}
        }
    }
    if offset < source_len {
        // The body covers fewer trits than the trusted total — a
        // boundary truncation or excised segments. Erase the tail.
        let data_entries = plan
            .entries
            .iter()
            .filter(|e| !matches!(e, PlanEntry::Parity { .. }))
            .count();
        let reason = if data_entries < plan.claimed_segments {
            DamageReason::Truncated
        } else {
            DamageReason::HeaderMismatch(
                "segments cover fewer trits than the header's source-length total",
            )
        };
        plans.push(Contribution::Erase {
            byte_range: bytes.len()..bytes.len(),
            reason,
            trits: source_len - offset,
        });
    }

    // Stage 2: decode the rebuilt segments (a short, all-High batch —
    // their bytes only exist now). Intact results are already in hand.
    let repaired_jobs: Vec<(usize, frame::ParsedSegment<'_>)> = plans
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            Contribution::Decode {
                seg,
                repaired: Some(_),
                ..
            } => Some((i, *seg)),
            _ => None,
        })
        .collect();
    let mut repaired_results: HashMap<usize, JobOutcome<Result<TritVec, DecodeError>>> =
        repaired_jobs
            .iter()
            .map(|(i, _)| *i)
            .zip(plan::decode_segments(
                engine,
                &repaired_jobs,
                &table,
                engine.cancel(),
            ))
            .collect();

    // Assemble, panic-isolated: a panicked or mis-decoding segment
    // degrades to an erasure.
    let mut trits = TritVec::with_capacity(source_len);
    let mut damaged = Vec::new();
    let mut recovered = 0usize;
    let total = plans.len();
    for (i, contribution) in plans.into_iter().enumerate() {
        let start = trits.len();
        let want = contribution.trits();
        let result = match &contribution {
            Contribution::Decode { repaired: None, .. } => intact_results.remove(&i),
            Contribution::Decode {
                repaired: Some(_), ..
            } => repaired_results.remove(&i),
            Contribution::Erase { .. } => None,
        };
        let (byte_range, reason) = match (contribution, result) {
            (
                Contribution::Decode {
                    byte_range,
                    repaired,
                    ..
                },
                Some(JobOutcome::Done(Ok(seg_out))),
            ) => {
                if seg_out.len() == want {
                    trits.extend_from_tritvec(&seg_out);
                    recovered += 1;
                    if let Some((group, parity_used)) = repaired {
                        ninec_obs::trace_instant(
                            "rung",
                            u32::try_from(i).unwrap_or(u32::MAX),
                            ninec_obs::RungKind::Repaired,
                            ninec_obs::TracePayload::Repair {
                                group: u32::try_from(group).unwrap_or(u32::MAX),
                                parity_used: u32::try_from(parity_used).unwrap_or(u32::MAX),
                            },
                        );
                        damaged.push(DamagedSegment {
                            index: i,
                            byte_range,
                            trit_range: start..start + want,
                            reason: DamageReason::RepairedBy { group, parity_used },
                        });
                    } else {
                        ninec_obs::trace_instant(
                            "rung",
                            u32::try_from(i).unwrap_or(u32::MAX),
                            ninec_obs::RungKind::Strict,
                            ninec_obs::TracePayload::None,
                        );
                    }
                    continue;
                }
                // A decoder returning the wrong length is a writer
                // bug; degrade to an erasure.
                (
                    byte_range,
                    DamageReason::Malformed("decoded length disagrees with the segment header"),
                )
            }
            (Contribution::Decode { byte_range, .. }, Some(JobOutcome::Done(Err(e)))) => {
                (byte_range, DamageReason::Decode(e))
            }
            (Contribution::Decode { byte_range, .. }, Some(JobOutcome::Panicked(_))) => {
                panics += 1;
                (byte_range, DamageReason::WorkerPanicked)
            }
            (Contribution::Decode { byte_range, .. }, Some(JobOutcome::Cancelled)) => {
                cancelled += 1;
                (byte_range, DamageReason::Cancelled)
            }
            (Contribution::Decode { byte_range, .. }, None) => (
                // Unreachable: decode plans always have a stage result.
                byte_range,
                DamageReason::Malformed("internal plan/result mismatch"),
            ),
            (
                Contribution::Erase {
                    byte_range, reason, ..
                },
                _,
            ) => (byte_range, reason),
        };
        ninec_obs::trace_instant(
            "rung",
            u32::try_from(i).unwrap_or(u32::MAX),
            ninec_obs::RungKind::Salvaged,
            ninec_obs::TracePayload::Erase {
                trits: u32::try_from(want).unwrap_or(u32::MAX),
            },
        );
        trits.push_run(Trit::X, want);
        damaged.push(DamagedSegment {
            index: i,
            byte_range,
            trit_range: start..start + want,
            reason,
        });
    }
    crate::metrics::publish_count(crate::metrics::ENGINE_WORKER_PANICS, panics);
    crate::metrics::publish_count(crate::metrics::ENGINE_CANCELLED_JOBS, cancelled);
    if !damaged.is_empty() {
        crate::metrics::publish_count(crate::metrics::ENGINE_SALVAGED_SEGMENTS, recovered as u64);
        // A partial salvage is a flush trigger: make sure this thread's
        // events are visible to `take_trace` even if the thread lives on.
        ninec_obs::flush_thread_trace();
    }
    Ok(SalvageReport {
        trits,
        recovered_segments: recovered,
        total_segments: total,
        damaged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::frame::{HEADER_BYTES, HEADER_BYTES_V3};
    use crate::engine::{Engine, Policy};

    /// The salvage rung on a fresh plan of `bytes`.
    fn salvage(e: &Engine, bytes: &[u8]) -> Result<SalvageReport, DecodeError> {
        e.build_plan(bytes)
            .and_then(|plan| e.execute_plan(&plan, Policy::Salvage))
    }

    /// The repair rung on a fresh plan of `bytes`.
    fn repair(e: &Engine, bytes: &[u8]) -> Result<SalvageReport, DecodeError> {
        e.build_plan(bytes)
            .and_then(|plan| e.execute_plan(&plan, Policy::Repair))
    }

    fn tv(s: &str) -> TritVec {
        s.parse().expect("valid trit literal")
    }

    fn sample_stream() -> TritVec {
        tv(&"0X0X01X001X0101X111111110000X1111X0110XX".repeat(20))
    }

    fn engine() -> Engine {
        Engine::builder().threads(2).segment_bits(64).build()
    }

    /// A v3 engine: 64-trit segments, groups of `g` data segments with
    /// `r` parity shards each.
    fn v3_engine(g: u8, r: u8) -> Engine {
        Engine::builder()
            .threads(2)
            .segment_bits(64)
            .parity(g, r)
            .build()
    }

    /// Byte offset of data segment `i`'s first payload byte in a frame
    /// whose data segments all have `payload_len` payload bytes.
    fn seg_payload_at(header_bytes: usize, payload_len: usize, i: usize) -> usize {
        header_bytes + i * (frame::SEGMENT_HEADER_BYTES + payload_len) + frame::SEGMENT_HEADER_BYTES
    }

    #[test]
    fn clean_frame_salvages_to_full_recovery() {
        let stream = sample_stream();
        let e = engine();
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let report = salvage(&e, &frame_bytes).expect("salvages");
        assert!(report.is_full_recovery());
        assert_eq!(report.recovered_segments, report.total_segments);
        assert_eq!(report.trits, e.decode_frame(&frame_bytes).expect("decodes"));
    }

    #[test]
    fn corrupt_segment_becomes_an_x_erasure_run() {
        let stream = sample_stream();
        let e = engine();
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let clean = e.decode_frame(&frame_bytes).expect("decodes");

        // Corrupt the first segment's first payload byte.
        let mut bad = frame_bytes.clone();
        bad[HEADER_BYTES + frame::SEGMENT_HEADER_BYTES] ^= 0x55;
        let report = salvage(&e, &bad).expect("salvages");
        assert!(!report.is_full_recovery());
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.trits.len(), stream.len());
        let d = &report.damaged[0];
        assert_eq!(d.index, 0);
        assert_eq!(d.reason, DamageReason::BadCrc);
        assert_eq!(d.trit_range.start, 0);
        assert_eq!(d.trit_range.end, 64, "segment covers one 64-trit shard");
        // Inside the damaged range: all X. Outside: identical to clean.
        for i in 0..report.trits.len() {
            let got = report.trits.get(i).expect("in range");
            if d.trit_range.contains(&i) {
                assert!(got.is_x(), "trit {i} inside damage must be X");
            } else {
                assert_eq!(Some(got), clean.get(i), "trit {i} outside damage");
            }
        }
        // Strict mode still fails closed on the same bytes.
        assert!(e.decode_frame(&bad).is_err());
    }

    #[test]
    fn truncated_tail_erases_the_missing_trits() {
        let stream = sample_stream();
        let e = engine();
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let cut = frame_bytes.len() - 3;
        let report = salvage(&e, &frame_bytes[..cut]).expect("salvages");
        assert_eq!(report.trits.len(), stream.len());
        assert!(!report.is_full_recovery());
        let last = report.damaged.last().expect("damage recorded");
        assert_eq!(last.trit_range.end, stream.len());
        assert_eq!(last.reason, DamageReason::Truncated);
    }

    #[test]
    fn boundary_truncation_synthesizes_a_tail_entry() {
        let stream = sample_stream();
        let e = engine();
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let parsed = frame::parse(&frame_bytes).expect("own frame parses");
        assert!(parsed.segments.len() >= 2, "test needs multiple segments");
        // Cut exactly at the last segment's boundary: the walk sees only
        // intact segments but the totals are short.
        let last_seg_bytes =
            frame::SEGMENT_HEADER_BYTES + parsed.segments.last().expect("nonempty").payload.len();
        let cut = frame_bytes.len() - last_seg_bytes;
        let report = salvage(&e, &frame_bytes[..cut]).expect("salvages");
        assert_eq!(report.trits.len(), stream.len());
        let last = report.damaged.last().expect("tail damage recorded");
        assert_eq!(last.reason, DamageReason::Truncated);
        assert_eq!(last.byte_range, cut..cut);
        assert!(last.trit_range.end == stream.len());
    }

    #[test]
    fn all_segments_damaged_is_all_x_not_an_error() {
        let stream = tv(&"01X0".repeat(16));
        let e = Engine::builder().threads(1).segment_bits(1 << 20).build();
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        // Corrupt the single segment.
        let mut bad = frame_bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let report = salvage(&e, &bad).expect("salvages");
        assert_eq!(report.recovered_segments, 0);
        assert_eq!(report.trits.len(), stream.len());
        assert!((0..report.trits.len()).all(|i| report.trits.get(i).is_some_and(|t| t.is_x())));
    }

    #[test]
    fn header_level_damage_is_still_fatal() {
        let stream = sample_stream();
        let e = engine();
        let mut frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        frame_bytes[7] ^= 0x01; // a code-length byte, covered by header CRC
        assert!(matches!(
            salvage(&e, &frame_bytes),
            Err(DecodeError::Frame(frame::FrameError::BadHeaderCrc))
        ));
        assert!(matches!(
            salvage(&e, b"junk"),
            Err(DecodeError::Frame(frame::FrameError::BadMagic))
        ));
    }

    #[test]
    fn resolve_erasures_covers_the_cases() {
        assert!(resolve_erasures(&[], 0).is_empty());
        assert_eq!(resolve_erasures(&[Some(9)], 5), vec![5]);
        assert_eq!(resolve_erasures(&[None], 5), vec![5]);
        assert_eq!(resolve_erasures(&[Some(3), Some(4)], 7), vec![3, 4]);
        // Inconsistent claims: clamp in order, last takes the rest.
        assert_eq!(resolve_erasures(&[Some(100), Some(4)], 7), vec![7, 0]);
        assert_eq!(resolve_erasures(&[None, Some(4)], 7), vec![0, 7]);
        assert_eq!(
            resolve_erasures(&[Some(2), None, Some(1)], 9),
            vec![2, 0, 7]
        );
    }

    // ------------------------------------------------------------------
    // Repair rung (frame v3).
    // ------------------------------------------------------------------

    #[test]
    fn repair_rebuilds_a_corrupt_segment_bit_exact() {
        let stream = sample_stream();
        let e = v3_engine(4, 1);
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let clean = e.decode_frame(&frame_bytes).expect("decodes");
        let parsed = frame::parse(&frame_bytes).expect("own frame parses");
        let payload_len = parsed.segments[0].payload.len();
        assert!(parsed.segments.len() >= 2, "test needs multiple segments");
        assert!(!parsed.parity.is_empty(), "v3 frame carries parity");

        // Corrupt segment 1's payload.
        let mut bad = frame_bytes.clone();
        bad[seg_payload_at(HEADER_BYTES_V3, payload_len, 1)] ^= 0x55;

        // Salvage alone erases it...
        let salvage = salvage(&e, &bad).expect("salvages");
        assert!(!salvage.is_full_recovery());
        assert_eq!(salvage.damaged[0].reason, DamageReason::BadCrc);

        // ...the repair rung rebuilds it bit-exactly.
        let report = repair(&e, &bad).expect("repairs");
        assert!(report.is_full_recovery(), "repair must be full recovery");
        assert_eq!(report.trits, clean, "repaired output is bit-exact");
        assert_eq!(report.repaired_segments(), 1);
        let d = report
            .damaged
            .iter()
            .find(|d| d.reason.is_repaired())
            .expect("a RepairedBy entry");
        assert_eq!(d.index, 1);
        assert!(matches!(
            d.reason,
            DamageReason::RepairedBy { parity_used: 1, .. }
        ));
    }

    #[test]
    fn g1_replication_repairs_any_single_segment() {
        // g = 1, r = 1: every data segment has its own parity copy; any
        // single corrupted data segment must decode bit-exact.
        let stream = sample_stream();
        let e = v3_engine(1, 1);
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let clean = e.decode_frame(&frame_bytes).expect("decodes");
        let parsed = frame::parse(&frame_bytes).expect("own frame parses");
        let payload_len = parsed.segments[0].payload.len();
        for i in 0..parsed.segments.len() {
            let mut bad = frame_bytes.clone();
            bad[seg_payload_at(HEADER_BYTES_V3, payload_len, i)] ^= 0xFF;
            let report = repair(&e, &bad).expect("repairs");
            assert!(report.is_full_recovery(), "segment {i} repairs");
            assert_eq!(report.trits, clean, "segment {i} bit-exact");
            assert_eq!(report.repaired_segments(), 1, "segment {i}");
        }
    }

    #[test]
    fn over_budget_damage_falls_back_to_salvage() {
        let stream = sample_stream();
        // One big group, one parity shard: two damaged members exceed r.
        let e = v3_engine(32, 1);
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let parsed = frame::parse(&frame_bytes).expect("own frame parses");
        assert!(parsed.segments.len() >= 3);
        let payload_len = parsed.segments[0].payload.len();
        let mut bad = frame_bytes.clone();
        bad[seg_payload_at(HEADER_BYTES_V3, payload_len, 0)] ^= 0x55;
        bad[seg_payload_at(HEADER_BYTES_V3, payload_len, 2)] ^= 0x55;
        let report = repair(&e, &bad).expect("falls back to salvage");
        assert!(!report.is_full_recovery());
        assert_eq!(report.repaired_segments(), 0);
        // Both damaged ranges are X-erased; everything else matches.
        let clean = e.decode_frame(&frame_bytes).expect("decodes");
        assert_eq!(report.trits.len(), clean.len());
        for d in &report.damaged {
            assert!(!d.trit_range.is_empty());
            for i in d.trit_range.clone() {
                assert!(report.trits.get(i).is_some_and(|t| t.is_x()));
            }
        }
    }

    #[test]
    fn corrupted_parity_segment_is_still_full_recovery() {
        let stream = sample_stream();
        let e = v3_engine(4, 2);
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let clean = e.decode_frame(&frame_bytes).expect("decodes");
        let parsed = frame::parse(&frame_bytes).expect("own frame parses");
        assert!(!parsed.parity.is_empty());
        // Corrupt the last byte of the frame — inside the final parity
        // shard's payload.
        let mut bad = frame_bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x55;
        for report in [
            repair(&e, &bad).expect("repairs"),
            salvage(&e, &bad).expect("salvages"),
        ] {
            // The decoded data is bit-exact; the dead parity shard covers
            // zero output trits, so this still counts as full recovery.
            assert_eq!(report.trits, clean);
            assert!(report.is_full_recovery());
            assert_eq!(report.repaired_segments(), 0);
            let d = report.damaged.last().expect("parity damage recorded");
            assert!(d.trit_range.is_empty());
        }
    }

    #[test]
    fn damaged_data_and_damaged_parity_in_different_groups_both_handled() {
        let stream = sample_stream();
        let e = v3_engine(2, 1);
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let clean = e.decode_frame(&frame_bytes).expect("decodes");
        let parsed = frame::parse(&frame_bytes).expect("own frame parses");
        let n = parsed.segments.len();
        let groups = parsed.groups();
        assert!(groups >= 2, "test needs at least two groups (n = {n})");
        let payload_len = parsed.segments[0].payload.len();
        // Damage data segment 0 (group 0) and the *other* group's parity:
        // repair must still fix the data segment.
        let mut bad = frame_bytes.clone();
        bad[seg_payload_at(HEADER_BYTES_V3, payload_len, 0)] ^= 0x55;
        let last = bad.len() - 1; // final parity shard = last group's
        bad[last] ^= 0x55;
        let report = repair(&e, &bad).expect("repairs");
        assert_eq!(report.trits, clean);
        assert!(report.is_full_recovery());
        assert_eq!(report.repaired_segments(), 1);
    }

    #[test]
    fn repair_on_v2_frames_is_exactly_salvage() {
        let stream = sample_stream();
        let e = engine(); // v2: no parity
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let mut bad = frame_bytes.clone();
        bad[HEADER_BYTES + frame::SEGMENT_HEADER_BYTES] ^= 0x55;
        let repair = repair(&e, &bad).expect("ladder runs");
        let salvage = salvage(&e, &bad).expect("salvages");
        assert_eq!(repair, salvage);
        assert!(!repair.is_full_recovery());
    }

    #[test]
    fn dead_parity_for_the_damaged_group_falls_back_to_erasure() {
        let stream = sample_stream();
        let e = v3_engine(1, 1);
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let parsed = frame::parse(&frame_bytes).expect("own frame parses");
        let n = parsed.segments.len();
        assert!(n >= 2);
        let payload_len = parsed.segments[0].payload.len();
        // Damage data segment 0 *and* its own parity shard (group 0 is
        // the first parity segment with g = 1).
        let data_end = seg_payload_at(HEADER_BYTES_V3, payload_len, n - 1) + payload_len;
        let mut bad = frame_bytes.clone();
        bad[seg_payload_at(HEADER_BYTES_V3, payload_len, 0)] ^= 0x55;
        bad[data_end + frame::SEGMENT_HEADER_BYTES] ^= 0x55;
        let report = repair(&e, &bad).expect("ladder runs");
        assert!(!report.is_full_recovery());
        assert_eq!(report.repaired_segments(), 0);
        let d = &report.damaged[0];
        assert_eq!(d.index, 0);
        assert!(!d.reason.is_repaired());
        for i in d.trit_range.clone() {
            assert!(report.trits.get(i).is_some_and(|t| t.is_x()));
        }
    }

    #[test]
    fn multi_fault_within_budget_repairs_across_groups() {
        let stream = sample_stream();
        // g = 2, r = 1 → interleaved groups; damage one member of two
        // *different* groups: both repair.
        let e = v3_engine(2, 1);
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        let clean = e.decode_frame(&frame_bytes).expect("decodes");
        let parsed = frame::parse(&frame_bytes).expect("own frame parses");
        let groups = parsed.groups();
        assert!(groups >= 2);
        let payload_len = parsed.segments[0].payload.len();
        // Segments 0 and 2 land in different interleaved groups (i % G;
        // here G > 2). They are also non-adjacent in the file, so the
        // scan reports two distinct damaged entries — adjacent damage
        // merges into one resync range, which repair (correctly) refuses
        // to guess about.
        assert!(groups > 2, "need distinct groups for segments 0 and 2");
        let mut bad = frame_bytes.clone();
        bad[seg_payload_at(HEADER_BYTES_V3, payload_len, 0)] ^= 0x55;
        bad[seg_payload_at(HEADER_BYTES_V3, payload_len, 2)] ^= 0x55;
        let report = repair(&e, &bad).expect("repairs");
        assert_eq!(report.trits, clean);
        assert!(report.is_full_recovery());
        assert_eq!(report.repaired_segments(), 2);
    }

    #[test]
    fn clean_v3_frame_decodes_strict_and_reports_no_damage() {
        let stream = sample_stream();
        let e = v3_engine(4, 2);
        let frame_bytes = e.encode_frame(8, &stream).expect("valid K");
        // Strict decode ignores parity segments entirely.
        let strict = e.decode_frame(&frame_bytes).expect("strict decodes v3");
        assert_eq!(strict.len(), stream.len());
        let report = repair(&e, &frame_bytes).expect("repairs");
        assert!(report.damaged.is_empty());
        assert!(report.is_full_recovery());
        assert_eq!(report.trits, strict);
    }
}
