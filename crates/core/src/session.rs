//! The unified decode entry point: [`DecodeSession`].
//!
//! Before the session API, decoding was scattered over three free
//! functions — `decode(&Encoded)`, `decode_bits(..)` and
//! `decode_stream(..)` — each with its own parameter order. A
//! `DecodeSession` collapses them into one builder: set what you know
//! (`.k()`, `.table()`, `.source_len()`, `.threads()`), then call the
//! entry matching your input shape:
//!
//! | input | call | parameters |
//! |---|---|---|
//! | [`Encoded`] | [`decode`](DecodeSession::decode) | all defaulted from the value; overrides win |
//! | raw trit stream | [`decode_trits`](DecodeSession::decode_trits) | `k` + `source_len` required, `table` defaults to the paper's |
//! | ATE bit stream | [`decode_bits`](DecodeSession::decode_bits) | same as `decode_trits` |
//! | `9CSF` frame bytes | [`decode_frame`](DecodeSession::decode_frame) | self-describing; `threads` + a [`Policy`] argument |
//!
//! Every malformed input is a typed [`DecodeError`] — a session never
//! panics, unlike the `assert!` the pre-session `decode_stream` carried.
//! (The old free functions were removed in 0.4.0; see the README's
//! migration note.)
//!
//! Frame decoding takes a [`Policy`] — the same enum the plan executor
//! uses — selecting how far down the strict → repair → salvage ladder
//! the session may go, and returns a [`DecodeOutcome`] that says what
//! actually happened (`rung`), carries the damage map when the ladder
//! advanced past strict (`report`) and, with
//! [`audit(true)`](DecodeSession::audit), the per-segment
//! [`DecodeAudit`] rollup. (The pre-0.5.0 per-rung frame entries are
//! gone; see the README's migration table.)
//!
//! For frame bytes the session can also expose the decode plan itself:
//! [`plan`](DecodeSession::plan) runs the single header/CRC scan pass
//! and [`execute_plan`](DecodeSession::execute_plan) drives any rung of
//! the strict → repair → salvage ladder against it without re-scanning.
//!
//! ```
//! use ninec::encode::Encoder;
//! use ninec::session::DecodeSession;
//! use ninec_testdata::trit::TritVec;
//!
//! let src: TritVec = "0X0X00XX1111X111".parse()?;
//! let encoded = Encoder::new(8)?.encode_stream(&src);
//! let back = DecodeSession::new().decode(&encoded)?;
//! assert_eq!(back.len(), src.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::code::CodeTable;
use crate::decode::{DecodeError, StreamDecoder};
use crate::encode::Encoded;
use crate::engine::{plan, DecodeAudit, DecodeLimits, Engine, FramePlan, Policy, SalvageReport};
use ninec_testdata::bits::BitVec;
use ninec_testdata::trit::TritVec;

pub use ninec_obs::RungKind;

/// What one [`DecodeSession::decode_frame`] call actually did.
///
/// One value answers the three questions the pre-0.5.0 per-rung entry
/// points each answered differently: the recovered stream (`trits`),
/// how it was recovered (`rung`, plus `report` when the ladder advanced
/// past strict) and, when [`audit`](DecodeSession::audit) is on, the
/// per-segment timeline rollup (`audit`).
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// The recovered source stream.
    pub trits: TritVec,
    /// The damage map, present iff the strict rung failed and the
    /// requested [`Policy`] let the ladder advance (repair or salvage).
    /// Its own `trits` field is drained into [`DecodeOutcome::trits`] —
    /// read the stream from the outcome, the map from the report.
    pub report: Option<SalvageReport>,
    /// Per-segment ladder/worker/latency rollup, present iff the session
    /// was built with [`audit(true)`](DecodeSession::audit).
    pub audit: Option<DecodeAudit>,
    /// The ladder rung that produced `trits`: [`RungKind::Strict`] when
    /// every segment decoded clean, [`RungKind::Repaired`] when parity
    /// rebuilt every damaged segment byte-exactly, [`RungKind::Salvaged`]
    /// when something was erased to `X` (lossy recovery).
    pub rung: RungKind,
}

impl DecodeOutcome {
    /// `true` when every source trit was recovered exactly (strict or
    /// fully repaired — nothing was erased to `X`).
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.rung != RungKind::Salvaged
    }
}

/// Builder-style decode entry point (see the module docs).
///
/// A session is cheap to build and reusable: none of the `decode_*`
/// methods consume it, so one configured session can decode many streams.
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct DecodeSession {
    k: Option<usize>,
    table: Option<CodeTable>,
    source_len: Option<usize>,
    threads: Option<usize>,
    limits: Option<DecodeLimits>,
    audit: bool,
    cancel: Option<crate::CancelToken>,
}

impl DecodeSession {
    /// Starts an empty session; every parameter is unset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Block size `K` the stream was encoded with.
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Code table the stream was encoded with (default: the paper's
    /// Table I code, or the [`Encoded`] value's own table in
    /// [`decode`](DecodeSession::decode)).
    pub fn table(mut self, table: CodeTable) -> Self {
        self.table = Some(table);
        self
    }

    /// Unpadded source length `|T_D|` to produce.
    pub fn source_len(mut self, source_len: usize) -> Self {
        self.source_len = Some(source_len);
        self
    }

    /// Worker threads for [`decode_frame`](DecodeSession::decode_frame)
    /// (default: [`crate::engine::default_threads`]). Raw streams have no
    /// segment boundaries, so the other entries are always serial.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Resource ceilings enforced while parsing `9CSF` frame bytes
    /// (default: [`DecodeLimits::default`]). Raise them for trusted
    /// oversized frames, or tighten them when the input is hostile.
    pub fn limits(mut self, limits: DecodeLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Makes [`decode_frame`](DecodeSession::decode_frame) run under a
    /// fresh flight-recorder trace and attach the [`DecodeAudit`] rollup
    /// to the outcome: one entry per segment naming the ladder rung it
    /// resolved on plus — while the flight recorder is on — the
    /// worker that decoded it and the decode wall-clock. The thread's
    /// trace buffer is flushed to the global recorder on every exit, so
    /// [`ninec_obs::take_trace`] always sees the decode's events.
    pub fn audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Cooperative cancellation for the frame entry points: workers
    /// check `token` between segments, so tripping it (explicitly or by
    /// deadline) aborts the remaining work — strict mode fails typed
    /// ([`DecodeError::Cancelled`] / [`DecodeError::DeadlineExceeded`]),
    /// repair/salvage answer with a partial report whose abandoned
    /// segments are erased as
    /// [`DamageReason::Cancelled`](crate::DamageReason::Cancelled).
    /// `ninec-serve` clones a tenant's session and attaches a
    /// per-request token here.
    pub fn cancel_token(mut self, token: crate::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Decodes an [`Encoded`] value. Parameters default to the value's
    /// own `k`/`table`/`source_len`; explicitly set ones win.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`]; cannot fail on unmodified encoder output
    /// decoded with its own parameters.
    pub fn decode(&self, encoded: &Encoded) -> Result<TritVec, DecodeError> {
        let k = self.k.unwrap_or_else(|| encoded.k());
        let table = self
            .table
            .clone()
            .unwrap_or_else(|| encoded.table().clone());
        let source_len = self.source_len.unwrap_or_else(|| encoded.source_len());
        decode_trits_with(encoded.stream(), k, &table, source_len)
    }

    /// Decodes a raw three-valued 9C stream. Requires
    /// [`k`](DecodeSession::k) and [`source_len`](DecodeSession::source_len);
    /// [`table`](DecodeSession::table) defaults to the paper's.
    ///
    /// # Errors
    ///
    /// [`DecodeError::MissingParameter`] when `k` or `source_len` is
    /// unset; otherwise see [`DecodeError`].
    pub fn decode_trits(&self, stream: &TritVec) -> Result<TritVec, DecodeError> {
        let k = self.k.ok_or(DecodeError::MissingParameter { what: "k" })?;
        let source_len = self
            .source_len
            .ok_or(DecodeError::MissingParameter { what: "source_len" })?;
        let table = self.table.clone().unwrap_or_else(CodeTable::paper);
        decode_trits_with(stream, k, &table, source_len)
    }

    /// Decodes a fully specified bit stream (what the ATE stores after
    /// X-fill) to the bits scanned into the chain. Same parameter rules
    /// as [`decode_trits`](DecodeSession::decode_trits).
    ///
    /// # Errors
    ///
    /// See [`decode_trits`](DecodeSession::decode_trits).
    pub fn decode_bits(&self, bits: &BitVec) -> Result<BitVec, DecodeError> {
        let trits = TritVec::from(bits);
        let out = self.decode_trits(&trits)?;
        Ok(out
            .to_bitvec()
            .expect("specified input decodes to specified output"))
    }

    /// Decodes a self-describing `9CSF` segment frame, sharding segments
    /// across [`threads`](DecodeSession::threads) workers. The frame
    /// carries its own per-segment `K`, source length and code table, so
    /// `threads`, `limits` and the `policy` argument are the only knobs.
    ///
    /// `policy` is the ladder ceiling — how far past a strict failure
    /// the session may go, driven against **one** [`FramePlan`] (a
    /// single header/CRC scan pass):
    ///
    /// - [`Policy::Strict`] — fail closed on any damaged segment, with
    ///   [`Engine::decode_frame`]'s verdict: the plan comes from its
    ///   fail-fast walk, which stops at the first damage instead of
    ///   resynchronising past it;
    /// - [`Policy::Repair`] — rebuild damage byte-exactly from v3 parity
    ///   groups first, erase to `X` only what parity cannot reach;
    /// - [`Policy::Salvage`] — skip parity, erase damaged spans to `X`.
    ///
    /// The outcome's [`rung`](DecodeOutcome::rung) reports what actually
    /// happened (a clean frame resolves as `Strict` under every policy),
    /// and [`report`](DecodeOutcome::report) carries the damage map
    /// whenever the ladder advanced past strict.
    ///
    /// # Errors
    ///
    /// Under [`Policy::Strict`]: [`DecodeError::TruncatedStream`] /
    /// [`DecodeError::Frame`] for structural problems,
    /// [`DecodeError::LimitExceeded`] when the frame asks for more than
    /// [`limits`](DecodeSession::limits) allows, plus the usual variants
    /// when a CRC-valid segment still fails 9C decoding. Under
    /// [`Policy::Repair`] / [`Policy::Salvage`] only file-level damage
    /// is fatal (bad magic/version, corrupt file header, an unbuildable
    /// code table, or a file header that itself exceeds the limits);
    /// per-segment damage lands in the outcome's report instead. Never
    /// panics on hostile input.
    pub fn decode_frame(&self, bytes: &[u8], policy: Policy) -> Result<DecodeOutcome, DecodeError> {
        if self.audit {
            let trace = ninec_obs::begin_trace();
            let result = {
                // The whole ladder under one `decode_frame` span.
                let _frame_span = ninec_obs::catalogue::SPAN_DECODE_FRAME.start();
                self.run_ladder(bytes, policy)
            };
            // Flush on every exit: DecodeError included.
            ninec_obs::flush_thread_trace();
            let (report, advanced) = result?;
            let audit = DecodeAudit::collect(trace, &report);
            Ok(Self::outcome(report, advanced, Some(audit)))
        } else {
            let (report, advanced) = self.run_ladder(bytes, policy)?;
            Ok(Self::outcome(report, advanced, None))
        }
    }

    /// The ladder body: strict first, then the requested rung, both
    /// against one plan. Returns the report and whether the ladder
    /// advanced past strict.
    fn run_ladder(
        &self,
        bytes: &[u8],
        policy: Policy,
    ) -> Result<(SalvageReport, bool), DecodeError> {
        let engine = self.engine();
        let plan = match policy {
            Policy::Strict => plan::build(bytes, engine.limits(), plan::BuildMode::FailFast)?,
            _ => engine.build_plan(bytes)?,
        };
        match engine.execute_plan(&plan, Policy::Strict) {
            Ok(report) => Ok((report, false)),
            Err(e) => match policy {
                Policy::Strict => Err(e),
                _ => engine.execute_plan(&plan, policy).map(|r| (r, true)),
            },
        }
    }

    /// Assembles a [`DecodeOutcome`], draining the report's trits and
    /// deriving the frame-level rung from the damage map.
    fn outcome(
        mut report: SalvageReport,
        advanced: bool,
        audit: Option<DecodeAudit>,
    ) -> DecodeOutcome {
        let rung = if !report.is_full_recovery() {
            RungKind::Salvaged
        } else if report.repaired_segments() > 0 {
            RungKind::Repaired
        } else {
            RungKind::Strict
        };
        let trits = std::mem::take(&mut report.trits);
        DecodeOutcome {
            trits,
            report: advanced.then_some(report),
            audit,
            rung,
        }
    }

    /// Builds the [`FramePlan`] for a `9CSF` frame: one header/CRC scan
    /// pass classifying every segment slot, reusable by every rung of
    /// the decode ladder via [`execute_plan`](DecodeSession::execute_plan).
    ///
    /// # Errors
    ///
    /// Only file-level damage (bad magic/version, corrupt file header,
    /// or a file-level limit bomb); per-segment damage is recorded in
    /// the plan's entries instead.
    pub fn plan<'a>(&self, bytes: &'a [u8]) -> Result<FramePlan<'a>, DecodeError> {
        self.engine().build_plan(bytes)
    }

    /// Executes one ladder rung ([`Policy::Strict`], [`Policy::Repair`]
    /// or [`Policy::Salvage`]) against a plan from
    /// [`plan`](DecodeSession::plan) — no re-scan, any number of rungs
    /// against the same plan.
    ///
    /// # Errors
    ///
    /// See [`crate::engine::Engine::execute_plan`].
    pub fn execute_plan(
        &self,
        plan: &FramePlan<'_>,
        policy: Policy,
    ) -> Result<SalvageReport, DecodeError> {
        self.engine().execute_plan(plan, policy)
    }

    /// Builds the engine backing the frame entry points.
    fn engine(&self) -> Engine {
        let mut builder = Engine::builder();
        if let Some(threads) = self.threads {
            builder = builder.threads(threads);
        }
        if let Some(limits) = self.limits {
            builder = builder.limits(limits);
        }
        if let Some(token) = &self.cancel {
            builder = builder.cancel_token(token.clone());
        }
        builder.build()
    }
}

/// Shared serial decode core for the session's non-frame entries.
fn decode_trits_with(
    stream: &TritVec,
    k: usize,
    table: &CodeTable,
    source_len: usize,
) -> Result<TritVec, DecodeError> {
    let _span = ninec_obs::catalogue::SPAN_DECODE_SESSION.start();
    let mut out = TritVec::with_capacity(source_len);
    StreamDecoder::new(stream.as_slice(), k, table.clone(), source_len)?.run_into(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use ninec_testdata::fill::FillStrategy;

    fn sample() -> (TritVec, Encoded) {
        let src: TritVec = "0X0X01X001X0101X111111110000X111".parse().unwrap();
        let enc = Encoder::new(8).unwrap().encode_stream(&src);
        (src, enc)
    }

    #[test]
    fn decode_defaults_from_the_encoded_value() {
        let (src, enc) = sample();
        let out = DecodeSession::new().decode(&enc).unwrap();
        assert_eq!(out.len(), src.len());
        for i in 0..src.len() {
            let s = src.get(i).unwrap();
            if s.is_care() {
                assert_eq!(Some(s), out.get(i));
            }
        }
    }

    #[test]
    fn explicit_overrides_beat_the_encoded_value() {
        let (_, enc) = sample();
        // Overriding K with a wrong-but-valid value decodes differently
        // (or errors) — proving the override actually applies.
        let with_own = DecodeSession::new().decode(&enc).unwrap();
        let with_k16 = DecodeSession::new().k(16).decode(&enc);
        assert_ne!(Ok(with_own), with_k16);
        // Overriding source_len truncates the output.
        let short = DecodeSession::new().source_len(5).decode(&enc).unwrap();
        assert_eq!(short.len(), 5);
    }

    #[test]
    fn decode_trits_requires_k_and_source_len() {
        let (_, enc) = sample();
        assert_eq!(
            DecodeSession::new()
                .source_len(enc.source_len())
                .decode_trits(enc.stream()),
            Err(DecodeError::MissingParameter { what: "k" })
        );
        assert_eq!(
            DecodeSession::new().k(8).decode_trits(enc.stream()),
            Err(DecodeError::MissingParameter { what: "source_len" })
        );
        let ok = DecodeSession::new()
            .k(8)
            .source_len(enc.source_len())
            .decode_trits(enc.stream())
            .unwrap();
        assert_eq!(ok, DecodeSession::new().decode(&enc).unwrap());
    }

    #[test]
    fn invalid_k_is_a_typed_error() {
        let (_, enc) = sample();
        assert_eq!(
            DecodeSession::new()
                .k(7)
                .source_len(enc.source_len())
                .decode_trits(enc.stream()),
            Err(DecodeError::InvalidBlockSize { k: 7 })
        );
        assert_eq!(
            DecodeSession::new().k(2).decode(&enc),
            Err(DecodeError::InvalidBlockSize { k: 2 })
        );
    }

    #[test]
    fn decode_bits_roundtrips_ate_stream() {
        let (src, enc) = sample();
        let ate = enc.to_bitvec(FillStrategy::Zero);
        let out = DecodeSession::new()
            .k(enc.k())
            .source_len(enc.source_len())
            .decode_bits(&ate)
            .unwrap();
        let out_trits = TritVec::from(&out);
        for i in 0..src.len() {
            let s = src.get(i).unwrap();
            if s.is_care() {
                assert_eq!(Some(s), out_trits.get(i));
            }
        }
    }

    #[test]
    fn decode_frame_is_self_describing() {
        let (src, _) = sample();
        let big: TritVec = {
            let mut v = TritVec::new();
            for _ in 0..50 {
                v.extend_from_tritvec(&src);
            }
            v
        };
        let frame = Engine::builder()
            .threads(2)
            .segment_bits(128)
            .build()
            .encode_frame(8, &big)
            .unwrap();
        // No k/table/source_len needed; threads + policy are the knobs.
        let out = DecodeSession::new()
            .threads(2)
            .decode_frame(&frame, Policy::Strict)
            .unwrap();
        assert_eq!(out.trits.len(), big.len());
        // A clean frame resolves on the strict rung: no report, no audit.
        assert_eq!(out.rung, RungKind::Strict);
        assert!(out.is_lossless());
        assert!(out.report.is_none());
        assert!(out.audit.is_none());
        // Hostile bytes: typed error, no panic.
        assert!(matches!(
            DecodeSession::new().decode_frame(&frame[..frame.len() - 1], Policy::Strict),
            Err(DecodeError::TruncatedStream { .. })
        ));
        assert!(matches!(
            DecodeSession::new().decode_frame(b"not a frame", Policy::Strict),
            Err(DecodeError::Frame(_))
        ));
    }

    #[test]
    fn a_tripped_cancel_token_fails_strict_typed_and_salvage_partial() {
        let (src, _) = sample();
        let mut big = TritVec::new();
        for _ in 0..50 {
            big.extend_from_tritvec(&src);
        }
        let frame = Engine::builder()
            .segment_bits(128)
            .build()
            .encode_frame(8, &big)
            .unwrap();

        // Pre-tripped explicit cancel: strict fails typed.
        let token = crate::CancelToken::new();
        token.cancel();
        let err = DecodeSession::new()
            .cancel_token(token.clone())
            .decode_frame(&frame, Policy::Strict)
            .expect_err("strict refuses a cancelled decode");
        assert_eq!(err, DecodeError::Cancelled);

        // Salvage under the same token answers partially: every segment
        // erased as Cancelled, full length preserved.
        let out = DecodeSession::new()
            .cancel_token(token)
            .decode_frame(&frame, Policy::Salvage)
            .unwrap();
        assert_eq!(out.trits.len(), big.len());
        assert!(!out.is_lossless());
        let report = out.report.expect("salvage produced a report");
        assert!(!report.damaged.is_empty());
        assert!(report
            .damaged
            .iter()
            .all(|d| d.reason == crate::DamageReason::Cancelled));

        // An expired deadline surfaces as the deadline-typed error.
        let expired = crate::CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let err = DecodeSession::new()
            .cancel_token(expired)
            .decode_frame(&frame, Policy::Strict)
            .expect_err("strict refuses an expired deadline");
        assert_eq!(err, DecodeError::DeadlineExceeded);

        // A live token changes nothing.
        let live = crate::CancelToken::after(std::time::Duration::from_secs(3600));
        let out = DecodeSession::new()
            .cancel_token(live)
            .decode_frame(&frame, Policy::Strict)
            .unwrap();
        assert_eq!(out.trits.len(), big.len());
        assert!(out.is_lossless());
    }

    #[test]
    fn salvage_policy_tolerates_a_damaged_segment() {
        let (src, _) = sample();
        let mut big = TritVec::new();
        for _ in 0..50 {
            big.extend_from_tritvec(&src);
        }
        let mut frame = Engine::builder()
            .segment_bits(128)
            .build()
            .encode_frame(8, &big)
            .unwrap();
        // Corrupt one payload byte inside the first segment.
        frame[crate::engine::frame::HEADER_BYTES + crate::engine::frame::SEGMENT_HEADER_BYTES] ^=
            0x55;

        // Strict policy fails closed...
        assert!(DecodeSession::new()
            .decode_frame(&frame, Policy::Strict)
            .is_err());
        // ...salvage policy recovers everything else and says so.
        let out = DecodeSession::new()
            .decode_frame(&frame, Policy::Salvage)
            .unwrap();
        assert_eq!(out.trits.len(), big.len());
        assert_eq!(out.rung, RungKind::Salvaged);
        assert!(!out.is_lossless());
        let report = out.report.expect("ladder advanced past strict");
        assert_eq!(report.damaged.len(), 1);
        assert!(!report.is_full_recovery());
        // The report's own trits are drained into the outcome.
        assert!(report.trits.is_empty());
    }

    #[test]
    fn limits_apply_to_frame_decoding() {
        let (src, _) = sample();
        let frame = Engine::builder().build().encode_frame(8, &src).unwrap();
        let tight = DecodeLimits {
            max_segment_trits: 1,
            ..DecodeLimits::default()
        };
        assert!(matches!(
            DecodeSession::new()
                .limits(tight)
                .decode_frame(&frame, Policy::Strict),
            Err(DecodeError::LimitExceeded { .. })
        ));
        // Unlimited still decodes fine.
        let out = DecodeSession::new()
            .limits(DecodeLimits::unlimited())
            .decode_frame(&frame, Policy::Strict)
            .unwrap();
        assert_eq!(out.trits.len(), src.len());
    }

    #[test]
    fn repair_policy_rebuilds_v3_damage_bit_exact() {
        let (src, _) = sample();
        let mut big = TritVec::new();
        for _ in 0..50 {
            big.extend_from_tritvec(&src);
        }
        let engine = Engine::builder().segment_bits(128).parity(4, 1).build();
        let frame = engine.encode_frame(8, &big).unwrap();
        let clean = engine.decode_frame(&frame).unwrap();
        let mut bad = frame.clone();
        bad[crate::engine::frame::HEADER_BYTES_V3 + crate::engine::frame::SEGMENT_HEADER_BYTES] ^=
            0x55;
        // Salvage policy erases the damage...
        let salvaged = DecodeSession::new()
            .decode_frame(&bad, Policy::Salvage)
            .unwrap();
        assert_eq!(salvaged.rung, RungKind::Salvaged);
        // ...repair policy rebuilds it bit-exactly.
        let out = DecodeSession::new()
            .decode_frame(&bad, Policy::Repair)
            .unwrap();
        assert_eq!(out.rung, RungKind::Repaired);
        assert!(out.is_lossless());
        assert_eq!(out.trits, clean);
        let report = out.report.expect("ladder advanced past strict");
        assert!(report.is_full_recovery());
        assert_eq!(report.repaired_segments(), 1);
    }

    #[test]
    fn audit_toggle_attaches_the_per_segment_rollup() {
        let (src, _) = sample();
        let mut big = TritVec::new();
        for _ in 0..50 {
            big.extend_from_tritvec(&src);
        }
        let engine = Engine::builder().segment_bits(128).parity(4, 1).build();
        let frame = engine.encode_frame(8, &big).unwrap();
        let mut bad = frame.clone();
        bad[crate::engine::frame::HEADER_BYTES_V3 + crate::engine::frame::SEGMENT_HEADER_BYTES] ^=
            0x55;
        let out = DecodeSession::new()
            .threads(1)
            .audit(true)
            .decode_frame(&bad, Policy::Repair)
            .unwrap();
        assert_eq!(out.rung, RungKind::Repaired);
        let audit = out.audit.expect("audit(true) attaches the rollup");
        let report = out.report.expect("ladder advanced past strict");
        assert_eq!(audit.segments.len(), report.total_segments);
        assert!(audit
            .segments
            .iter()
            .any(|s| matches!(s.rung, crate::engine::SegmentRung::Repaired { .. })));
        // Without the toggle the outcome stays lean.
        let lean = DecodeSession::new()
            .decode_frame(&frame, Policy::Repair)
            .unwrap();
        assert!(lean.audit.is_none());
    }

    #[test]
    fn one_session_plan_drives_every_rung() {
        let (src, _) = sample();
        let mut big = TritVec::new();
        for _ in 0..50 {
            big.extend_from_tritvec(&src);
        }
        let engine = Engine::builder().segment_bits(128).parity(4, 1).build();
        let frame = engine.encode_frame(8, &big).unwrap();
        let clean = engine.decode_frame(&frame).unwrap();
        let mut bad = frame.clone();
        bad[crate::engine::frame::HEADER_BYTES_V3 + crate::engine::frame::SEGMENT_HEADER_BYTES] ^=
            0x55;

        let session = DecodeSession::new();
        let plan = session.plan(&bad).unwrap();
        // Strict fails closed on the damaged segment...
        assert!(session.execute_plan(&plan, Policy::Strict).is_err());
        // ...repair rebuilds it bit-exactly from the SAME plan...
        let repaired = session.execute_plan(&plan, Policy::Repair).unwrap();
        assert!(repaired.is_full_recovery());
        assert_eq!(repaired.trits, clean);
        // ...and salvage erases it, still from the same plan.
        let salvaged = session.execute_plan(&plan, Policy::Salvage).unwrap();
        assert!(!salvaged.is_full_recovery());
        assert_eq!(salvaged.damaged.len(), 1);
    }

    #[test]
    fn session_is_reusable() {
        let (_, enc) = sample();
        let session = DecodeSession::new();
        let a = session.decode(&enc).unwrap();
        let b = session.decode(&enc).unwrap();
        assert_eq!(a, b);
    }
}
