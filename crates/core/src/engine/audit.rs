//! Per-frame decode audit: which ladder rung produced each segment.
//!
//! A [`DecodeAudit`] is the queryable rollup of one audited frame decode
//! ([`DecodeSession::audit`](crate::session::DecodeSession::audit)): one
//! [`SegmentAudit`] per output segment naming the rung it resolved on
//! (strict / repaired / salvaged), and — while the flight recorder is
//! on — the worker that decoded it and the decode wall-clock, recovered
//! from the matching `segment_decode` span pair in the trace.
//!
//! The rung facts come from the [`SalvageReport`]'s damage map, so they
//! are exact whatever the switches say; the worker/timing attribution
//! degrades to `None` while [`ninec_obs::trace_enabled`] is off.

use crate::engine::frame::DamageReason;
use crate::engine::salvage::SalvageReport;
use std::collections::HashMap;
use std::fmt;

/// The decode-ladder rung one segment resolved on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SegmentRung {
    /// The segment decoded strictly: CRC-valid on the wire, payload
    /// decoded first try.
    Strict,
    /// The segment was damaged on the wire but rebuilt byte-exactly from
    /// its parity group before decoding.
    Repaired {
        /// Parity group that reconstructed the segment.
        group: usize,
        /// Parity shards consumed by the reconstruction.
        parity_used: usize,
    },
    /// The segment could not be recovered; its trits are `X` erasures.
    Salvaged,
}

impl SegmentRung {
    /// Stable lowercase label: `"strict"`, `"repaired"` or `"salvaged"`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SegmentRung::Strict => "strict",
            SegmentRung::Repaired { .. } => "repaired",
            SegmentRung::Salvaged => "salvaged",
        }
    }
}

impl fmt::Display for SegmentRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One segment's line in a [`DecodeAudit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentAudit {
    /// Output-plan segment index (stream order).
    pub index: usize,
    /// The ladder rung the segment resolved on.
    pub rung: SegmentRung,
    /// Worker that ran the segment's final decode, when the flight
    /// recorder captured it.
    pub worker: Option<u32>,
    /// Wall-clock of the segment's final decode in nanoseconds, when the
    /// flight recorder captured it.
    pub nanos: Option<u64>,
}

/// Queryable per-frame audit trail of one audited decode (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeAudit {
    /// Flight-recorder trace id the decode ran under.
    pub trace: u64,
    /// One entry per output segment, in stream order.
    pub segments: Vec<SegmentAudit>,
}

impl DecodeAudit {
    /// Builds the audit for `report`, attributing workers and timings
    /// from the flight recorder's current contents filtered to `trace`.
    ///
    /// When the same segment was decoded more than once (a strict
    /// attempt that failed, then the salvage rung), the **last** span
    /// pair wins — that is the decode whose output the report contains.
    #[must_use]
    pub fn collect(trace: u64, report: &SalvageReport) -> Self {
        let mut segments: Vec<SegmentAudit> = (0..report.total_segments)
            .map(|index| SegmentAudit {
                index,
                rung: SegmentRung::Strict,
                worker: None,
                nanos: None,
            })
            .collect();
        for d in &report.damaged {
            if let Some(slot) = segments.get_mut(d.index) {
                slot.rung = match d.reason {
                    DamageReason::RepairedBy { group, parity_used } => {
                        SegmentRung::Repaired { group, parity_used }
                    }
                    _ => SegmentRung::Salvaged,
                };
            }
        }
        // Pair up segment_decode spans from the recorder; events are in
        // seq order, so later pairs overwrite earlier attempts.
        let mut open: HashMap<u64, (u32, u32, u64)> = HashMap::new();
        for ev in ninec_obs::snapshot_trace() {
            if ev.trace != trace || ev.name != ninec_obs::catalogue::SPAN_SEGMENT_DECODE.name() {
                continue;
            }
            match ev.kind {
                ninec_obs::EventKind::SpanStart => {
                    open.insert(ev.span, (ev.segment, ev.worker, ev.nanos));
                }
                ninec_obs::EventKind::SpanEnd => {
                    if let Some((seg, worker, start)) = open.remove(&ev.span) {
                        if let Some(slot) = segments.get_mut(seg as usize) {
                            slot.worker = (worker != ninec_obs::NO_WORKER).then_some(worker);
                            slot.nanos = Some(ev.nanos.saturating_sub(start));
                        }
                    }
                }
                ninec_obs::EventKind::Instant => {}
            }
        }
        DecodeAudit { trace, segments }
    }

    /// Segments that decoded strictly.
    #[must_use]
    pub fn strict_segments(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s.rung, SegmentRung::Strict))
            .count()
    }

    /// Segments rebuilt byte-exactly from parity.
    #[must_use]
    pub fn repaired_segments(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s.rung, SegmentRung::Repaired { .. }))
            .count()
    }

    /// Segments erased to `X`.
    #[must_use]
    pub fn salvaged_segments(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s.rung, SegmentRung::Salvaged))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::salvage::DamagedSegment;
    use ninec_testdata::trit::TritVec;

    fn report(total: usize, damaged: Vec<DamagedSegment>) -> SalvageReport {
        SalvageReport {
            trits: TritVec::new(),
            recovered_segments: total - damaged.iter().filter(|d| !d.reason.is_repaired()).count(),
            total_segments: total,
            damaged,
        }
    }

    #[test]
    fn rungs_derive_from_the_damage_map() {
        let r = report(
            3,
            vec![
                DamagedSegment {
                    index: 1,
                    byte_range: 0..0,
                    trit_range: 0..0,
                    reason: DamageReason::RepairedBy {
                        group: 2,
                        parity_used: 1,
                    },
                },
                DamagedSegment {
                    index: 2,
                    byte_range: 0..0,
                    trit_range: 0..0,
                    reason: DamageReason::BadCrc,
                },
            ],
        );
        let audit = DecodeAudit::collect(0, &r);
        assert_eq!(audit.segments.len(), 3);
        assert_eq!(audit.segments[0].rung, SegmentRung::Strict);
        assert_eq!(
            audit.segments[1].rung,
            SegmentRung::Repaired {
                group: 2,
                parity_used: 1
            }
        );
        assert_eq!(audit.segments[2].rung, SegmentRung::Salvaged);
        assert_eq!(audit.strict_segments(), 1);
        assert_eq!(audit.repaired_segments(), 1);
        assert_eq!(audit.salvaged_segments(), 1);
    }

    #[test]
    fn rung_labels_are_stable() {
        assert_eq!(SegmentRung::Strict.label(), "strict");
        assert_eq!(
            SegmentRung::Repaired {
                group: 0,
                parity_used: 0
            }
            .to_string(),
            "repaired"
        );
        assert_eq!(SegmentRung::Salvaged.label(), "salvaged");
    }
}
