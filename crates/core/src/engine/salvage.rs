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
//!    plan pins down exactly which segments are damaged — *erasure
//!    positions*, the easy half of Reed–Solomon decoding. Each parity
//!    group rebuilds up to `r` erased member segments byte-exactly over
//!    GF(256) through `ParityCoder::rebuild`
//!    ([`crate::engine::ecc::ParityCoder`]), the group rebuild the
//!    archive scrubber shares; this rung only maps plan entries onto
//!    group slots. Every reconstructed segment is re-verified against
//!    its own CRC before acceptance, and repaired segments decode in
//!    parallel on the same panic-isolated pool as intact ones. Their
//!    damage-map entries carry [`DamageReason::RepairedBy`] —
//!    informational, not loss.
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
//! rebuilt segments decode in a short follow-up batch. Every segment
//! decode is the engine's one segment job, `Engine::decode_one_segment`,
//! which opens the segment's `segment_decode` span.
//!
//! The rungs keep their state in one list of output slots: the plan's
//! non-parity entries in stream order, plus an erased tail when they
//! cover fewer trits than the header total. A slot's position is the
//! index its `segment_decode` span, fault point, `rung` trace event and
//! damage-map entry carry. Decode outcomes and the layout (each slot's
//! trits and erasure reason) are vectors indexed by slot, and parity
//! rebuilds a vector indexed by plan entry.

use crate::decode::{DecodeError, DecodeTable};
use crate::engine::ecc::ParityCoder;
use crate::engine::exec::{self, JobOutcome, Priority};
use crate::engine::frame::{self, DamageReason};
#[cfg(doc)]
use crate::engine::plan::Policy;
use crate::engine::plan::{self, FramePlan, PlanEntry};
use crate::engine::reader::OwnedSegment;
use crate::engine::{Engine, SegmentDecode};
use crate::metrics::DecodeTally;
use ninec_obs::catalogue;
use ninec_testdata::trit::{Trit, TritVec};
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
/// parse — and the provenance to report.
struct Rebuilt {
    seg: OwnedSegment,
    /// Parity group that produced it.
    group: usize,
    /// Parity shards the reconstruction consumed.
    parity_used: usize,
}

/// Attempts RS reconstruction of parity group `q`'s damaged members.
/// Repair only runs on a plan of exactly `n + p` entries, so plan entry
/// `m < n` is data segment `m`. Returns the CRC-verified rebuilds plus
/// the count of members that stayed unrepairable (feeding
/// `ninec.ecc.repair_failures`). Runs as a [`Priority::Low`] executor
/// job — intact decodes always go first.
fn repair_group(
    plan: &FramePlan<'_>,
    coder: &ParityCoder,
    q: usize,
    limits: &frame::DecodeLimits,
) -> (Vec<Rebuilt>, u64) {
    let (entries, n, r) = (&plan.entries, plan.claimed_segments, coder.r());
    let members: Vec<usize> = frame::group_members(q, n, plan.groups()).collect();
    let erased = members
        .iter()
        .filter(|&&m| entries[m].damage().is_some())
        .count();
    // Intact members are present, damaged ones erased; a parity entry in
    // a data slot is impossible and fails the whole group.
    let shards: Option<Vec<Option<&[u8]>>> = members
        .iter()
        .map(|&m| match &entries[m] {
            // Plan byte ranges always index the planned bytes; `get`
            // keeps this total regardless.
            PlanEntry::Data { byte_range, .. } => Some(plan.bytes.get(byte_range.clone())),
            PlanEntry::OverBudget { .. } | PlanEntry::Damaged { .. } => Some(None),
            PlanEntry::Parity { .. } => None,
        })
        .collect();
    // Entry `n + q*r + j` should be parity `(q, j)`; mis-labelled or
    // damaged parity slots are simply absent.
    let parity: Vec<Option<&[u8]>> = (0..r)
        .map(|j| match &entries[n + q * r + j] {
            PlanEntry::Parity { par, .. } if par.group == q && par.pindex == j => Some(par.payload),
            _ => None,
        })
        .collect();
    let Some((_, recovered)) = shards.and_then(|s| coder.rebuild(&s, &parity)) else {
        return (Vec::new(), erased as u64);
    };
    let mut rebuilt = Vec::with_capacity(recovered.len());
    let mut failures = 0u64;
    for (slot, shard) in recovered {
        let idx = members[slot];
        // Accept only if the rebuilt shard parses as a CRC-valid segment
        // at offset 0 (the shard is the segment's own header + payload +
        // zero pad). This is the segment's one and only parse — the
        // decode stage reuses its verified fields via `OwnedSegment::view`.
        match frame::segment_at(&shard, 0, idx, limits, None) {
            Ok((seg, _)) => {
                let (k, source_trits, payload_trits) = (seg.k, seg.source_trits, seg.payload_trits);
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
    (rebuilt, failures)
}

/// One segment decode's outcome on the executor.
type Decoded = JobOutcome<SegmentDecode<TritVec>>;

/// The first executor run's per-job outcome: an intact segment's decode
/// (High priority) or one parity group's reconstruction (Low priority).
enum StageOut {
    Decoded(SegmentDecode<TritVec>),
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
    let table = DecodeTable::for_lengths(&plan.table_lengths).ok_or(frame::FrameError::BadTable)?;
    let source_len = plan.source_len;

    // The output slots: the plan's non-parity entries with their entry
    // index, in stream order. A slot's position is the index its
    // `segment_decode` span, fault point and damage-map entry carry.
    let slots: Vec<(usize, &PlanEntry<'_>)> = plan
        .entries
        .iter()
        .enumerate()
        .filter(|(_, entry)| !matches!(entry, PlanEntry::Parity { .. }))
        .collect();
    let intact: Vec<(usize, frame::ParsedSegment<'_>)> = slots
        .iter()
        .enumerate()
        .filter_map(|(s, (_, entry))| match entry {
            PlanEntry::Data { seg, .. } => Some((s, *seg)),
            _ => None,
        })
        .collect();
    // Repair only runs when the plan's structure is unambiguous: exactly
    // `n + p` entries, so entry position is segment position and the
    // erasure positions are certain. Anything else (merged damage
    // ranges, spliced frames) falls through to plain salvage — repair
    // must never guess. There is no coder without parity shards.
    let (n, groups) = (plan.claimed_segments, plan.groups());
    let coder = if repair && groups > 0 && plan.entries.len() == n + plan.claimed_parity_segments()
    {
        ParityCoder::new(plan.parity_g as usize, plan.parity_r as usize).ok()
    } else {
        None
    };
    let damaged_groups: Vec<usize> = match coder {
        Some(_) => (0..groups)
            .filter(|&q| {
                frame::group_members(q, n, groups).any(|m| plan.entries[m].damage().is_some())
            })
            .collect(),
        None => Vec::new(),
    };

    // Stage 1, one prioritized executor run: intact-segment decodes at
    // High priority (they are the critical path of every rung), parity
    // reconstruction of each damaged group backfilling at Low.
    let boundary = intact.len();
    let stage1 = exec::run_cancellable(
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
            if let Some((s, seg)) = intact.get(i) {
                let out = TritVec::with_capacity(seg.source_trits);
                return StageOut::Decoded(engine.decode_one_segment(seg, *s, &table, out));
            }
            let group = damaged_groups[i - boundary];
            let _grp_span = catalogue::SPAN_REPAIR_GROUP.start_at(
                ninec_obs::NO_SEGMENT,
                ninec_obs::TracePayload::Group {
                    group: u32::try_from(group).unwrap_or(u32::MAX),
                },
            );
            let (rebuilt, failures) = coder.as_ref().map_or_else(Default::default, |c| {
                repair_group(plan, c, group, engine.limits())
            });
            StageOut::Rebuilt(rebuilt, failures)
        },
    );
    // Decode outcomes by slot (stage 1 fills the intact ones, stage 2
    // the rebuilt ones) and rebuilds by plan entry.
    let mut outcomes: Vec<Option<Decoded>> = vec![None; slots.len()];
    let mut rebuilt: Vec<Option<Rebuilt>> = (0..plan.entries.len()).map(|_| None).collect();
    let (mut repair_failures, mut panics, mut cancelled) = (0u64, 0u64, 0u64);
    // Both stages' decode telemetry, published once at the end.
    let mut tally = DecodeTally::default();
    for (i, out) in stage1.into_iter().enumerate() {
        let out = match out {
            JobOutcome::Done(StageOut::Rebuilt(rebuilds, failures)) => {
                repair_failures += failures;
                for rb in rebuilds {
                    let at = rb.seg.index;
                    rebuilt[at] = Some(rb);
                }
                continue;
            }
            JobOutcome::Done(StageOut::Decoded(d)) => {
                d.tally_into(&mut tally);
                JobOutcome::Done(d)
            }
            JobOutcome::Panicked(p) => JobOutcome::Panicked(p),
            JobOutcome::Cancelled => JobOutcome::Cancelled,
        };
        match intact.get(i) {
            Some(&(s, _)) => outcomes[s] = Some(out),
            // A panicking or cancelled repair job degrades its whole
            // group to plain salvage: the members stay erased with their
            // original reasons. Only the panic is counted.
            None => panics += u64::from(matches!(out, JobOutcome::Panicked(_))),
        }
    }
    crate::metrics::publish_count(catalogue::ECC_REPAIR_FAILURES, repair_failures);

    // Trusted lengths: intact + rebuilt segments. Untrusted: the
    // unrepaired damaged entries' claims, which share the rest.
    let mut intact_sum = 0usize;
    let mut claims: Vec<Option<usize>> = Vec::new();
    for &(e, entry) in &slots {
        match (entry, &rebuilt[e]) {
            (PlanEntry::Data { seg, .. }, _) => {
                intact_sum = intact_sum.saturating_add(seg.source_trits)
            }
            (_, Some(rb)) => intact_sum = intact_sum.saturating_add(rb.seg.source_trits),
            (damaged, None) => claims.extend(damaged.damage().map(|(_, claimed)| claimed)),
        }
    }
    let mut erase_lens =
        resolve_erasures(&claims, source_len.saturating_sub(intact_sum)).into_iter();

    // Layout: each slot's output trits and why it is erased (`None`: it
    // decodes, from the wire or from its rebuild), clipped at the trusted
    // source_len. A segment that would overshoot (duplicated or spliced
    // segments) is erased as a header mismatch rather than silently
    // growing the output; a rebuild that would is erased under its wire
    // damage.
    let mut layout: Vec<(usize, Option<DamageReason>)> = Vec::with_capacity(slots.len() + 1);
    let mut offset = 0usize;
    for &(e, entry) in &slots {
        let left = source_len - offset;
        let (want, erase) = match (entry, &rebuilt[e]) {
            (PlanEntry::Data { seg, .. }, _) if seg.source_trits <= left => {
                (seg.source_trits, None)
            }
            (PlanEntry::Data { .. }, _) => (
                left,
                Some(DamageReason::HeaderMismatch(
                    "segment exceeds the header's source-length total",
                )),
            ),
            (_, Some(rb)) if rb.seg.source_trits <= left => (rb.seg.source_trits, None),
            (damaged, _) => (
                erase_lens.next().unwrap_or(0).min(left),
                damaged.damage().map(|(reason, _)| reason),
            ),
        };
        offset += want;
        layout.push((want, erase));
    }
    if offset < source_len {
        // The body covers fewer trits than the trusted total — a
        // boundary truncation or excised segments. Erase the tail.
        let reason = if slots.len() < plan.claimed_segments {
            DamageReason::Truncated
        } else {
            DamageReason::HeaderMismatch(
                "segments cover fewer trits than the header's source-length total",
            )
        };
        layout.push((source_len - offset, Some(reason)));
    }

    // Stage 2: decode the rebuilt segments that fit (a short, all-High
    // batch — their bytes only exist now).
    let repaired: Vec<(usize, frame::ParsedSegment<'_>)> = slots
        .iter()
        .zip(&layout)
        .enumerate()
        .filter_map(|(s, (&(e, _), (_, erase)))| match (&rebuilt[e], erase) {
            (Some(rb), None) => Some((s, rb.seg.view())),
            _ => None,
        })
        .collect();
    let results = plan::decode_segments(engine, &repaired, &table, engine.cancel());
    for (&(s, _), out) in repaired.iter().zip(results) {
        if let JobOutcome::Done(d) = &out {
            d.tally_into(&mut tally);
        }
        outcomes[s] = Some(out);
    }
    tally.publish();

    // Assemble, panic-isolated: a panicked or mis-decoding segment
    // degrades to an erasure.
    let mut trits = TritVec::with_capacity(source_len);
    let mut damaged = Vec::new();
    let mut recovered = 0usize;
    let total = layout.len();
    for (s, (want, erase)) in layout.into_iter().enumerate() {
        let start = trits.len();
        let at = u32::try_from(s).unwrap_or(u32::MAX);
        let (byte_range, rb) = slots
            .get(s)
            .map_or((bytes.len()..bytes.len(), None), |&(e, entry)| {
                (entry.byte_range(), rebuilt[e].as_ref())
            });
        let reason = match (erase, outcomes.get_mut(s).and_then(Option::take)) {
            (Some(reason), _) => reason,
            (None, Some(JobOutcome::Done(SegmentDecode { trits: Ok(out), .. })))
                if out.len() == want =>
            {
                trits.extend_from_tritvec(&out);
                recovered += 1;
                let Some(rb) = rb else {
                    ninec_obs::trace_instant(
                        "rung",
                        at,
                        ninec_obs::RungKind::Strict,
                        ninec_obs::TracePayload::None,
                    );
                    continue;
                };
                ninec_obs::trace_instant(
                    "rung",
                    at,
                    ninec_obs::RungKind::Repaired,
                    ninec_obs::TracePayload::Repair {
                        group: u32::try_from(rb.group).unwrap_or(u32::MAX),
                        parity_used: u32::try_from(rb.parity_used).unwrap_or(u32::MAX),
                    },
                );
                damaged.push(DamagedSegment {
                    index: s,
                    byte_range,
                    trit_range: start..start + want,
                    reason: DamageReason::RepairedBy {
                        group: rb.group,
                        parity_used: rb.parity_used,
                    },
                });
                continue;
            }
            // A decoder returning the wrong length is a writer bug;
            // degrade to an erasure.
            (None, Some(JobOutcome::Done(SegmentDecode { trits: Ok(_), .. }))) => {
                DamageReason::Malformed("decoded length disagrees with the segment header")
            }
            (
                None,
                Some(JobOutcome::Done(SegmentDecode {
                    trits: Err(err), ..
                })),
            ) => DamageReason::Decode(err),
            (None, Some(JobOutcome::Panicked(_))) => {
                panics += 1;
                DamageReason::WorkerPanicked
            }
            (None, Some(JobOutcome::Cancelled)) => {
                cancelled += 1;
                DamageReason::Cancelled
            }
            // Unreachable: every decoding slot has a stage result.
            (None, None) => DamageReason::Malformed("internal plan/result mismatch"),
        };
        ninec_obs::trace_instant(
            "rung",
            at,
            ninec_obs::RungKind::Salvaged,
            ninec_obs::TracePayload::Erase {
                trits: u32::try_from(want).unwrap_or(u32::MAX),
            },
        );
        trits.push_run(Trit::X, want);
        damaged.push(DamagedSegment {
            index: s,
            byte_range,
            trit_range: start..start + want,
            reason,
        });
    }
    crate::metrics::publish_count(catalogue::ENGINE_WORKER_PANICS, panics);
    crate::metrics::publish_count(catalogue::ENGINE_CANCELLED_JOBS, cancelled);
    crate::metrics::publish_count(
        catalogue::ECC_REPAIRED_SEGMENTS,
        damaged
            .iter()
            .filter(|d| matches!(d.reason, DamageReason::RepairedBy { .. }))
            .count() as u64,
    );
    if !damaged.is_empty() {
        crate::metrics::publish_count(catalogue::ENGINE_SALVAGED_SEGMENTS, recovered as u64);
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

    /// The data segments, the parity groups and the first data segment's
    /// payload bytes of the clean frame `bytes`.
    fn layout(e: &Engine, bytes: &[u8]) -> (usize, usize, usize) {
        let plan = e.build_plan(bytes).expect("own frame plans");
        let payload_len = plan.entries()[0].byte_range().len() - frame::SEGMENT_HEADER_BYTES;
        (plan.intact_count(), plan.groups(), payload_len)
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
        let plan = e.build_plan(&frame_bytes).expect("own frame plans");
        assert!(plan.entries().len() >= 2, "test needs multiple segments");
        // Cut exactly at the last segment's boundary: the walk sees only
        // intact segments but the totals are short.
        let last_seg_bytes = plan.entries().last().expect("nonempty").byte_range().len();
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
        let (n, groups, payload_len) = layout(&e, &frame_bytes);
        assert!(n >= 2, "test needs multiple segments");
        assert!(groups > 0, "v3 frame carries parity");

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
        let (n, _, payload_len) = layout(&e, &frame_bytes);
        for i in 0..n {
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
        let (n, _, payload_len) = layout(&e, &frame_bytes);
        assert!(n >= 3);
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
        assert!(layout(&e, &frame_bytes).1 > 0, "v3 frame carries parity");
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
        let (n, groups, payload_len) = layout(&e, &frame_bytes);
        assert!(groups >= 2, "test needs at least two groups (n = {n})");
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
        let (n, _, payload_len) = layout(&e, &frame_bytes);
        assert!(n >= 2);
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
        let (_, groups, payload_len) = layout(&e, &frame_bytes);
        assert!(groups >= 2);
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
