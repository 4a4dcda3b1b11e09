//! Sharded multi-core codec engine.
//!
//! The paper's Fig. 4(c) parallel-decompressor splits the encoded stream
//! across independent FSMs; [`Engine`] is the software mirror of that
//! architecture. It partitions a source stream into block-aligned
//! **segments**, encodes/decodes them concurrently on a std-only executor
//! ([`exec`]) whose workers claim segments from one shared cursor, and
//! merges deterministically — the output is byte-identical regardless of
//! thread count; at `threads = 1` the calling thread runs every segment.
//!
//! Two output shapes:
//!
//! - [`Engine::encode`] — a plain [`Encoded`] stream, **bit-identical**
//!   to [`Encoder::encode_stream`](crate::encode::Encoder::encode_stream)
//!   on the same input (segments are aligned to `K`-block boundaries and
//!   9C's min-size case selection is block-local, so concatenation is
//!   exact);
//! - [`Engine::encode_frame`] — the self-describing [`frame`] container
//!   (`9CSF`: magic, version, per-segment `K`, trit length, encoded
//!   length, CRC), which is what makes *parallel decode* possible:
//!   variable-length codewords have no sync points, so the decoder needs
//!   out-of-band segment boundaries. Frames also unlock per-segment block
//!   size selection ([`Engine::encode_frame_best_k`]), the per-shard
//!   parameter choice that code-based schemes win on.
//!
//! Case selection is the paper's min-size greedy: it is block-local, which
//! is exactly the property that makes segment-parallel encoding exact.
//! (Power-aware selection tracks state across block seams and is therefore
//! only available on the serial [`Encoder`].)
//!
//! Telemetry (on unless switched off at run time, batched at segment
//! boundaries):
//! per-worker busy-time counters, the completed-job counter and
//! segment-latency histograms — see [`crate::metrics`].
//!
//! ```
//! use ninec::engine::Engine;
//! use ninec::encode::Encoder;
//! use ninec_testdata::trit::TritVec;
//!
//! let stream: TritVec = "0X0X00XX1111X11101X0".repeat(50).parse()?;
//! let engine = Engine::builder().threads(4).segment_bits(128).build();
//!
//! // Parallel encode is bit-identical to the serial encoder...
//! let parallel = engine.encode(8, &stream)?;
//! assert_eq!(parallel, Encoder::new(8)?.encode_stream(&stream));
//!
//! // ...and the framed container decodes in parallel too.
//! let frame = engine.encode_frame(8, &stream)?;
//! let back = engine.decode_frame(&frame)?;
//! assert_eq!(back.len(), stream.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![deny(clippy::unwrap_used)]

pub mod archive;
pub mod audit;
pub mod cancel;
mod crc;
pub mod ecc;
pub mod exec;
pub mod faultpoint;
pub mod frame;
pub mod plan;
pub mod reader;
pub mod salvage;
pub mod scrub;

pub use archive::{Archive, ArchiveError, ArchiveStats, FrameInfo};
pub use audit::{DecodeAudit, SegmentAudit, SegmentRung};
pub use cancel::{CancelToken, Trip};
pub use ecc::{EccError, ParityCoder};
pub use exec::active_jobs;
pub use frame::{DamageReason, DecodeLimits, FrameError};
pub use plan::{FramePlan, PlanEntry, Policy};
pub use reader::{FrameReader, ReadError, StreamItem};
pub use salvage::{DamagedSegment, SalvageReport};
pub use scrub::{ScrubFinding, ScrubMode, ScrubReport, ScrubVerdict};

/// A cheaply clonable, thread-safe handle to one [`Engine`].
///
/// The engine itself is `Send + Sync` (immutable after build), so a
/// server can hold one engine per tenant behind an `Arc` and hand clones
/// to every connection handler without re-validating configuration —
/// this is the handle `ninec-serve` multiplexes connections onto.
pub type SharedEngine = std::sync::Arc<Engine>;

use crate::code::CodeTable;
use crate::decode::{DecodeError, DecodeTable, Decoder};
use crate::encode::{EncodeStats, EncodeTotals, Encoded, Encoder, InvalidBlockSize};
use crate::metrics::{DecodeRun, DecodeTally, EncodeTally};
use crate::stream::BitCounter;
use ninec_obs::catalogue;
use ninec_obs::SampleBatch;
use ninec_testdata::trit::TritVec;
use std::borrow::Cow;
use std::fmt;

/// Default segment size in source trits (1 Mbit), before block alignment.
pub const DEFAULT_SEGMENT_BITS: usize = 1 << 20;

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "NINEC_THREADS";

/// The default worker-thread count: `NINEC_THREADS` if set to a positive
/// integer, else [`std::thread::available_parallelism`], clamped to
/// [`exec::MAX_THREADS`].
#[must_use]
pub fn default_threads() -> usize {
    let env = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let n = env.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    n.clamp(1, exec::MAX_THREADS)
}

/// Error from framing a stream: either the block size is invalid or a
/// segment overflows the `9CSF` header fields (4 Gi-trit per-segment
/// ceiling). Replaces the encode-side `expect`s older releases carried —
/// oversized segments are an error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EncodeFrameError {
    /// The requested block size is not even and at least 4.
    InvalidBlockSize(InvalidBlockSize),
    /// A segment (or the segment count) overflows its frame header field.
    Frame(FrameError),
    /// The configured parity geometry is invalid (`g = 0` with parity
    /// shards requested, or `g + r` beyond the GF(256) shard ceiling).
    Parity(ecc::EccError),
}

impl fmt::Display for EncodeFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeFrameError::InvalidBlockSize(e) => write!(f, "{e}"),
            EncodeFrameError::Frame(e) => write!(f, "cannot frame stream: {e}"),
            EncodeFrameError::Parity(e) => write!(f, "cannot add parity: {e}"),
        }
    }
}

impl std::error::Error for EncodeFrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EncodeFrameError::InvalidBlockSize(e) => Some(e),
            EncodeFrameError::Frame(e) => Some(e),
            EncodeFrameError::Parity(e) => Some(e),
        }
    }
}

impl From<InvalidBlockSize> for EncodeFrameError {
    fn from(e: InvalidBlockSize) -> Self {
        EncodeFrameError::InvalidBlockSize(e)
    }
}

impl From<FrameError> for EncodeFrameError {
    fn from(e: FrameError) -> Self {
        EncodeFrameError::Frame(e)
    }
}

/// Builder for [`Engine`] (see the module docs for the knobs' meaning).
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct EngineBuilder {
    threads: Option<usize>,
    segment_bits: Option<usize>,
    table: Option<CodeTable>,
    limits: Option<DecodeLimits>,
    parity: Option<(u8, u8)>,
    cancel: Option<CancelToken>,
    #[cfg(feature = "failpoints")]
    failpoints: Vec<faultpoint::FailPoint>,
}

impl EngineBuilder {
    /// Worker threads. Defaults to [`default_threads`] (the
    /// `NINEC_THREADS` environment variable, else the machine's available
    /// parallelism). At `1` the calling thread runs every job itself.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.clamp(1, exec::MAX_THREADS));
        self
    }

    /// Target segment size in source trits (default
    /// [`DEFAULT_SEGMENT_BITS`]). Rounded down to a whole number of
    /// `K`-bit blocks at encode time (minimum one block), so thread count
    /// never influences where segments fall.
    pub fn segment_bits(mut self, bits: usize) -> Self {
        self.segment_bits = Some(bits.max(1));
        self
    }

    /// Code table (default: the paper's Table I code).
    pub fn table(mut self, table: CodeTable) -> Self {
        self.table = Some(table);
        self
    }

    /// Resource ceilings for frame decode (default:
    /// [`DecodeLimits::default`]). Use [`DecodeLimits::unlimited`] for
    /// trusted input.
    pub fn limits(mut self, limits: DecodeLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Erasure-coding geometry for encoded frames: every `g` data
    /// segments (interleaved — see [`frame::group_of`]) are protected by
    /// `r` GF(256) Reed–Solomon parity segments, and the frame is
    /// emitted as **v3**. Up to `r` damaged segments per group can be
    /// rebuilt byte-exactly by the repair rung,
    /// [`execute_plan`](Engine::execute_plan) at [`Policy::Repair`].
    ///
    /// `r = 0` disables parity (plain v2 frames, the default). Invalid
    /// geometry (`g = 0` with `r > 0`, or `g + r >`
    /// [`ecc::MAX_SHARDS`]) is reported at encode time as
    /// [`EncodeFrameError::Parity`].
    pub fn parity(mut self, g: u8, r: u8) -> Self {
        self.parity = if r == 0 { None } else { Some((g, r)) };
        self
    }

    /// Cooperative cancellation for this engine's frame decodes: workers
    /// check `token` **between** segments, so a tripped token abandons
    /// the remaining segment jobs — strict mode then fails typed
    /// ([`DecodeError::Cancelled`] / [`DecodeError::DeadlineExceeded`])
    /// while repair/salvage erase the unfinished segments as
    /// [`DamageReason::Cancelled`] in a partial report. Encode paths are
    /// unaffected. Default: no token, never cancelled.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arms a deterministic fault-injection point on the decode path
    /// (see [`faultpoint`]). Only available with the `failpoints` cargo
    /// feature; production builds cannot arm faults.
    #[cfg(feature = "failpoints")]
    pub fn failpoint(mut self, point: faultpoint::FailPoint) -> Self {
        self.failpoints.push(point);
        self
    }

    /// Finalizes the engine. With the `failpoints` feature, any
    /// [`faultpoint::ENV`] (`NINEC_FAILPOINT`) spec is parsed here and
    /// appended to the explicitly armed points; a malformed spec is
    /// ignored rather than panicking.
    pub fn build(self) -> Engine {
        #[cfg(feature = "failpoints")]
        let failpoints = {
            let mut points = self.failpoints;
            if let Ok(spec) = std::env::var(faultpoint::ENV) {
                if let Ok(mut parsed) = faultpoint::parse_spec(&spec) {
                    points.append(&mut parsed);
                }
            }
            points
        };
        #[cfg(not(feature = "failpoints"))]
        let failpoints = Vec::new();
        Engine {
            threads: self.threads.unwrap_or_else(default_threads),
            segment_bits: self.segment_bits.unwrap_or(DEFAULT_SEGMENT_BITS),
            table: self.table.unwrap_or_else(CodeTable::paper),
            limits: self.limits.unwrap_or_default(),
            parity: self.parity,
            cancel: self.cancel,
            failpoints,
        }
    }

    /// Finalizes the engine behind a [`SharedEngine`] handle, ready to
    /// be cloned across connection handlers or worker threads.
    pub fn build_shared(self) -> SharedEngine {
        std::sync::Arc::new(self.build())
    }
}

/// The sharded multi-core codec engine (see the module docs).
#[derive(Debug, Clone)]
pub struct Engine {
    threads: usize,
    segment_bits: usize,
    table: CodeTable,
    limits: DecodeLimits,
    parity: Option<(u8, u8)>,
    cancel: Option<CancelToken>,
    /// Armed fault-injection points. Always empty unless the
    /// `failpoints` feature armed some — the decode path checks an empty
    /// slice, which is free.
    failpoints: Vec<faultpoint::FailPoint>,
}

impl Default for Engine {
    /// An engine with default threads/segmenting and the paper's table.
    fn default() -> Self {
        Engine::builder().build()
    }
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Worker threads this engine schedules onto.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Target segment size in source trits (before block alignment).
    #[must_use]
    pub fn segment_bits(&self) -> usize {
        self.segment_bits
    }

    /// The engine's code table.
    #[must_use]
    pub fn table(&self) -> &CodeTable {
        &self.table
    }

    /// The resource ceilings applied to frame decodes.
    #[must_use]
    pub fn limits(&self) -> &DecodeLimits {
        &self.limits
    }

    /// The configured `(g, r)` parity geometry, if any — `Some` means
    /// encoded frames are v3 with GF(256) parity groups.
    #[must_use]
    pub fn parity(&self) -> Option<(u8, u8)> {
        self.parity
    }

    /// The engine's [`CancelToken`], if one was attached at build time —
    /// checked between segments on every frame decode.
    #[must_use]
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Segment length for block size `k`: `segment_bits` rounded down to
    /// a whole number of blocks, minimum one block.
    fn segment_len(&self, k: usize) -> usize {
        (self.segment_bits / k * k).max(k)
    }

    /// Splits `[0, len)` into `[start, end)` segment ranges of `seg_len`
    /// trits (the last segment may be ragged).
    fn segment_ranges(len: usize, seg_len: usize) -> Vec<(usize, usize)> {
        (0..len.div_ceil(seg_len))
            .map(|i| (i * seg_len, ((i + 1) * seg_len).min(len)))
            .collect()
    }

    /// Compresses `stream` at block size `k`, sharding the work across the
    /// pool. The result — stream bits, stats, everything — is bit-identical
    /// to [`Encoder::encode_stream`] and independent of the thread count.
    ///
    /// # Errors
    ///
    /// [`InvalidBlockSize`] unless `k` is even and at least 4.
    pub fn encode(&self, k: usize, stream: &TritVec) -> Result<Encoded, InvalidBlockSize> {
        let _span = catalogue::SPAN_ENGINE_ENCODE.start();
        let encoder = Encoder::with_table(k, self.table.clone())?;
        let t0 = ninec_obs::runtime_enabled().then(std::time::Instant::now);
        let ranges = Self::segment_ranges(stream.len(), self.segment_len(k));
        let parts: Vec<SegmentEncode> = exec::map_indexed(self.threads, ranges.len(), |i| {
            let (start, end) = ranges[i];
            let t0 = ninec_obs::runtime_enabled().then(std::time::Instant::now);
            encode_segment(&encoder, stream, start, end, t0)
        });
        // Deterministic merge: segment order is source order.
        let mut out = TritVec::with_capacity(parts.iter().map(|p| p.stream.len()).sum());
        let mut stats = EncodeStats::default();
        let mut tally = EncodeTally::default();
        let mut encode_ns = SampleBatch::default();
        for part in &parts {
            out.extend_from_tritvec(&part.stream);
            stats.merge(&part.totals.stats);
            part.tally_into(&encoder, &mut tally, &mut encode_ns);
        }
        tally.publish();
        crate::metrics::publish_samples(catalogue::ENGINE_SEG_ENCODE_NS, &encode_ns);
        if let Some(t0) = t0 {
            crate::metrics::publish_encode_throughput(stream.len(), t0.elapsed().as_secs_f64());
        }
        Ok(Encoded::from_parts(
            k,
            self.table.clone(),
            out,
            stream.len(),
            stats,
        ))
    }

    /// Compresses `stream` into a self-describing `9CSF` [`frame`] with a
    /// uniform per-segment block size `k`. Segment payloads are encoded
    /// concurrently; the frame bytes are independent of the thread count.
    ///
    /// # Errors
    ///
    /// [`EncodeFrameError::InvalidBlockSize`] unless `k` is even and at
    /// least 4; [`EncodeFrameError::Frame`] when a segment overflows the
    /// `9CSF` header fields (the 4 Gi-trit per-segment ceiling).
    pub fn encode_frame(&self, k: usize, stream: &TritVec) -> Result<Vec<u8>, EncodeFrameError> {
        self.encode_frame_best_k(&[k], stream)
    }

    /// Compresses `stream` into a `9CSF` frame, choosing for **each
    /// segment** the candidate block size that minimizes that segment's
    /// encoded length (ties to the smaller `K`) — per-shard parameter
    /// selection in the spirit of the evolutionary code-based schemes.
    ///
    /// Segment boundaries come from the *first* candidate (so the frame
    /// geometry is deterministic); every candidate is sized with a
    /// counting pass and the winner is re-encoded for real.
    ///
    /// # Errors
    ///
    /// [`EncodeFrameError::InvalidBlockSize`] if `candidates` is empty
    /// (reported as `k = 0`) or contains an odd / undersized block size;
    /// [`EncodeFrameError::Frame`] when a segment (or the segment count)
    /// overflows the `9CSF` header fields.
    pub fn encode_frame_best_k(
        &self,
        candidates: &[usize],
        stream: &TritVec,
    ) -> Result<Vec<u8>, EncodeFrameError> {
        let _span = catalogue::SPAN_ENGINE_ENCODE_FRAME.start();
        let Some(&first) = candidates.first() else {
            return Err(InvalidBlockSize { k: 0 }.into());
        };
        let encoders = candidates
            .iter()
            .map(|&k| Encoder::with_table(k, self.table.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let ranges = Self::segment_ranges(stream.len(), self.segment_len(first));
        // Each job returns its chosen encoder's index with its segment.
        let parts: Vec<(usize, SegmentEncode)> =
            exec::map_indexed(self.threads, ranges.len(), |i| {
                let (start, end) = ranges[i];
                let t0 = ninec_obs::runtime_enabled().then(std::time::Instant::now);
                let chosen = if encoders.len() == 1 {
                    0
                } else {
                    // Counting pass per candidate, publishing nothing;
                    // deterministic tie-break on (size, K).
                    (0..encoders.len())
                        .min_by_key(|&c| {
                            let enc = &encoders[c];
                            let mut counter = BitCounter::default();
                            let mut se = enc.stream_encoder(&mut counter);
                            se.feed(stream.slice_view(start, end));
                            se.finish_unpublished();
                            (counter.bits(), enc.k())
                        })
                        .expect("candidate list verified non-empty above")
                };
                // The job's one latency sample covers its sizing passes.
                (
                    chosen,
                    encode_segment(&encoders[chosen], stream, start, end, t0),
                )
            });
        let mut tally = EncodeTally::default();
        let mut encode_ns = SampleBatch::default();
        for (chosen, part) in &parts {
            part.tally_into(&encoders[*chosen], &mut tally, &mut encode_ns);
        }
        tally.publish();
        crate::metrics::publish_samples(catalogue::ENGINE_SEG_ENCODE_NS, &encode_ns);
        let mut out = Vec::new();
        let segment_count = u32::try_from(ranges.len()).map_err(|_| {
            EncodeFrameError::Frame(FrameError::SegmentTooLarge {
                what: "segment count",
                len: ranges.len(),
            })
        })?;
        // Validate parity geometry up front so the error surfaces even
        // for streams short enough to need no parity shards.
        let coder = match self.parity {
            Some((g, r)) => Some(
                ecc::ParityCoder::new(g as usize, r as usize).map_err(EncodeFrameError::Parity)?,
            ),
            None => None,
        };
        match self.parity {
            Some((g, r)) => frame::write_header_v3(
                &mut out,
                self.table.lengths(),
                segment_count,
                stream.len() as u64,
                g,
                r,
            ),
            None => frame::write_header(
                &mut out,
                self.table.lengths(),
                segment_count,
                stream.len() as u64,
            ),
        }
        let mut seg_spans: Vec<std::ops::Range<usize>> = Vec::with_capacity(parts.len());
        for (i, (chosen, part)) in parts.iter().enumerate() {
            let (start, end) = ranges[i];
            let at = out.len();
            frame::write_segment(&mut out, encoders[*chosen].k(), end - start, &part.stream)?;
            seg_spans.push(at..out.len());
        }
        if let (Some(coder), Some((g, _r))) = (coder, self.parity) {
            // Parity shards cover each group's member segments — full
            // header + payload bytes, zero-padded to the group's longest
            // member — so a reconstructed shard *is* the segment,
            // re-verifiable against its own CRC.
            let n = seg_spans.len();
            let groups = frame::group_count(n, g);
            let parity_start = out.len();
            let mut shards: Vec<(usize, usize, Vec<u8>)> = Vec::new();
            for q in 0..groups {
                let members: Vec<&[u8]> = frame::group_members(q, n, groups)
                    .map(|i| &out[seg_spans[i].clone()])
                    .collect();
                let shard_len = members.iter().map(|m| m.len()).max().unwrap_or(0);
                for (j, shard) in coder.encode(&members, shard_len).into_iter().enumerate() {
                    shards.push((q, j, shard));
                }
            }
            for (q, j, shard) in &shards {
                frame::write_parity_segment(&mut out, *q, *j, shard)?;
            }
            crate::metrics::publish_count(
                catalogue::ECC_PARITY_BITS,
                ((out.len() - parity_start) * 8) as u64,
            );
        }
        Ok(out)
    }

    /// Decodes a `9CSF` frame, decoding segments concurrently and
    /// concatenating them in stream order. Output is independent of the
    /// thread count.
    ///
    /// # Errors
    ///
    /// - [`DecodeError::TruncatedStream`] when the byte stream ends early;
    /// - [`DecodeError::LimitExceeded`] when a header-claimed size
    ///   exceeds the engine's [`DecodeLimits`] (checked before any
    ///   allocation — the decompression-bomb guard);
    /// - [`DecodeError::Frame`] for every other structural problem (bad
    ///   magic, bad CRC, bad table, malformed segment);
    /// - [`DecodeError::WorkerPanicked`] when a segment's decode task
    ///   panicked (only reachable with an armed `failpoints` fault or a
    ///   codec bug) — the panic is caught at the task boundary, every
    ///   other segment still completes, and the merge never deadlocks;
    /// - the usual [`DecodeError`] variants when a CRC-valid segment still
    ///   fails 9C decoding.
    ///
    /// Never panics on hostile input. For decode-what-you-can recovery
    /// instead of fail-closed, run [`build_plan`](Engine::build_plan)
    /// and [`execute_plan`](Engine::execute_plan) at [`Policy::Repair`]
    /// or [`Policy::Salvage`].
    pub fn decode_frame(&self, bytes: &[u8]) -> Result<TritVec, DecodeError> {
        let _span = catalogue::SPAN_ENGINE_DECODE_FRAME.start();
        // One fail-fast plan build (a single header/CRC scan pass) pins
        // the strict verdict; execution only decodes `Data` entries.
        let built = plan::build(bytes, &self.limits, plan::BuildMode::FailFast)
            .map_err(DecodeError::from)?;
        plan::execute_strict(self, &built).map(|report| report.trits)
    }

    /// Decodes one parsed segment, attributed to index `i`, into `out`
    /// under its `segment_decode` span — the one segment job of every
    /// decode: strict, repair, salvage and streaming. The payload is
    /// checked once and then decoded from its packed bytes in place,
    /// straight into the segment's share of the frame's output. The job
    /// publishes nothing: its decoder run and latency sample come back
    /// with its edge words. Armed [`faultpoint`]s fire here (panic/delay
    /// before the work, corrupt after), which is what makes worker
    /// panics and torn writes deterministically injectable.
    pub(crate) fn decode_one_segment(
        &self,
        seg: &frame::ParsedSegment<'_>,
        i: usize,
        table: &DecodeTable,
        mut out: plan::InPlace<'_>,
    ) -> SegmentDecode {
        let _seg_span = catalogue::SPAN_SEGMENT_DECODE.start_at(
            u32::try_from(i).unwrap_or(u32::MAX),
            ninec_obs::TracePayload::None,
        );
        let fault = faultpoint::fire(&self.failpoints, faultpoint::SITE_SEG, i);
        match fault {
            Some(faultpoint::Action::Panic) => panic!("failpoint seg:{i}:panic"),
            Some(faultpoint::Action::Delay { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(*millis));
            }
            _ => {}
        }
        let t0 = ninec_obs::runtime_enabled().then(std::time::Instant::now);
        let mut run = DecodeRun::default();
        let decoded = (|| {
            let payload = frame::checked_payload(seg, i)?;
            let decoder =
                Decoder::with_table(payload, seg.k, Cow::Borrowed(table), seg.source_trits)?;
            let result;
            (result, run) = decoder.run_tallied(&mut out);
            result
        })();
        if let Err(e) = decoded {
            return SegmentDecode {
                trits: Err(e),
                run,
                nanos: None,
            };
        }
        if matches!(fault, Some(faultpoint::Action::Corrupt)) {
            // Torn write: flip the first decoded trit after the CRC and
            // the 9C decode both passed.
            out.flip_first();
        }
        SegmentDecode {
            trits: Ok(out.finish()),
            run,
            nanos: t0.map(|t0| t0.elapsed().as_nanos() as u64),
        }
    }
}

/// One segment decode job's result: the edge words it shares with its
/// neighbours, and the telemetry the call publishes once for all its
/// jobs.
#[derive(Debug, Clone)]
pub(crate) struct SegmentDecode {
    /// The job's edge words, or why the segment failed.
    pub(crate) trits: Result<plan::EdgeWords, DecodeError>,
    /// The decoder's run, also when it failed part-way.
    pub(crate) run: DecodeRun,
    /// Latency sample of a successful decode; `None` on failure or with
    /// telemetry off.
    pub(crate) nanos: Option<u64>,
}

impl SegmentDecode {
    /// Adds this job's telemetry to its call's tally.
    pub(crate) fn tally_into(&self, tally: &mut DecodeTally) {
        tally.add_run(self.run);
        if let Some(nanos) = self.nanos {
            tally.add_latency(nanos);
        }
    }
}

/// One segment encode job's result: its stream, its totals and its
/// latency sample (`None` with telemetry off).
#[derive(Debug)]
struct SegmentEncode {
    stream: TritVec,
    totals: EncodeTotals,
    nanos: Option<u64>,
}

impl SegmentEncode {
    /// Adds this job's telemetry, encoded with `enc`, to its call's
    /// tally and latency samples.
    fn tally_into(&self, enc: &Encoder, tally: &mut EncodeTally, encode_ns: &mut SampleBatch) {
        tally.add(
            &self.totals.stats,
            self.totals.source_len,
            enc.table(),
            enc.k(),
        );
        if let Some(nanos) = self.nanos {
            encode_ns.add(nanos);
        }
    }
}

/// Encodes one `[start, end)` segment of `stream` with `enc`, publishing
/// nothing; its latency sample runs from `t0`, when its job started.
fn encode_segment(
    enc: &Encoder,
    stream: &TritVec,
    start: usize,
    end: usize,
    t0: Option<std::time::Instant>,
) -> SegmentEncode {
    let mut out = TritVec::with_capacity((end - start) / 4 + 8);
    let mut se = enc.stream_encoder(&mut out);
    se.feed(stream.slice_view(start, end));
    let totals = se.finish_unpublished();
    SegmentEncode {
        stream: out,
        totals,
        nanos: t0.map(|t0| t0.elapsed().as_nanos() as u64),
    }
}

impl From<frame::FrameError> for DecodeError {
    fn from(e: frame::FrameError) -> Self {
        match e {
            frame::FrameError::Truncated { offset } => DecodeError::TruncatedStream { offset },
            frame::FrameError::LimitExceeded {
                what,
                requested,
                limit,
            } => DecodeError::LimitExceeded {
                what,
                requested,
                limit,
            },
            other => DecodeError::Frame(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;

    fn tv(s: &str) -> TritVec {
        s.parse().expect("valid trit literal")
    }

    fn sample(repeat: usize) -> TritVec {
        tv(&"0X0X01X001X0101X111111110000X1111X0110XX".repeat(repeat))
    }

    #[test]
    fn parallel_encode_is_bit_identical_to_serial() {
        let stream = sample(40);
        for k in [4usize, 8, 16, 32] {
            let serial = Encoder::new(k).expect("valid K").encode_stream(&stream);
            for threads in [1usize, 2, 8] {
                for seg in [k, 3 * k, 4096] {
                    let engine = Engine::builder().threads(threads).segment_bits(seg).build();
                    let par = engine.encode(k, &stream).expect("valid K");
                    assert_eq!(par, serial, "K={k} threads={threads} seg={seg}");
                }
            }
        }
    }

    #[test]
    fn frame_bytes_are_thread_count_independent() {
        let stream = sample(25);
        let frames: Vec<Vec<u8>> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                Engine::builder()
                    .threads(t)
                    .segment_bits(100)
                    .build()
                    .encode_frame(8, &stream)
                    .expect("valid K")
            })
            .collect();
        assert_eq!(frames[0], frames[1]);
        assert_eq!(frames[0], frames[2]);
    }

    #[test]
    fn frame_roundtrip_matches_serial_decode() {
        let stream = sample(20);
        let engine = Engine::builder().threads(4).segment_bits(64).build();
        for k in [4usize, 8, 16] {
            let frame = engine.encode_frame(k, &stream).expect("valid K");
            let back = engine.decode_frame(&frame).expect("own frame decodes");
            assert_eq!(back.len(), stream.len());
            // Every care bit survives; X is preserved or bound uniform.
            for i in 0..stream.len() {
                let s = stream.get(i).expect("in range");
                if s.is_care() {
                    assert_eq!(Some(s), back.get(i), "K={k} bit {i}");
                }
            }
        }
    }

    #[test]
    fn empty_stream_is_an_empty_frame() {
        let engine = Engine::builder().threads(4).build();
        let empty = TritVec::new();
        let enc = engine.encode(8, &empty).expect("valid K");
        assert_eq!(enc.compressed_len(), 0);
        let frame = engine.encode_frame(8, &empty).expect("valid K");
        assert_eq!(frame.len(), frame::HEADER_BYTES);
        assert!(engine.decode_frame(&frame).expect("decodes").is_empty());
    }

    #[test]
    fn invalid_k_is_rejected_not_asserted() {
        let engine = Engine::default();
        let stream = sample(1);
        assert_eq!(engine.encode(7, &stream), Err(InvalidBlockSize { k: 7 }));
        assert_eq!(
            engine.encode_frame(2, &stream).expect_err("odd K rejected"),
            EncodeFrameError::InvalidBlockSize(InvalidBlockSize { k: 2 })
        );
        assert_eq!(
            engine
                .encode_frame_best_k(&[], &stream)
                .expect_err("empty candidates rejected"),
            EncodeFrameError::InvalidBlockSize(InvalidBlockSize { k: 0 })
        );
    }

    #[test]
    fn best_k_never_beats_worse_than_its_candidates() {
        let stream = sample(30);
        let engine = Engine::builder().threads(2).segment_bits(160).build();
        let best = engine
            .encode_frame_best_k(&[4, 8, 16], &stream)
            .expect("valid candidates");
        // Payload trits summed over the data segments of a frame.
        let payload_of = |bytes: &[u8]| -> usize {
            let plan = engine.build_plan(bytes).expect("own frame plans");
            plan.entries()
                .iter()
                .map(|e| match e {
                    PlanEntry::Data { seg, .. } => seg.payload_trits,
                    _ => 0,
                })
                .sum()
        };
        let payload = payload_of(&best);
        for k in [4usize, 8, 16] {
            let single_payload = payload_of(&engine.encode_frame(k, &stream).expect("valid K"));
            assert!(
                payload <= single_payload,
                "best-K payload {payload} > K={k} payload {single_payload}"
            );
        }
        // Best-K frames still roundtrip.
        let back = engine.decode_frame(&best).expect("best-K frame decodes");
        assert_eq!(back.len(), stream.len());
    }

    #[test]
    fn corrupt_frames_yield_typed_errors() {
        let stream = sample(10);
        let engine = Engine::builder().threads(2).segment_bits(80).build();
        let frame_bytes = engine.encode_frame(8, &stream).expect("valid K");

        let mut bad_magic = frame_bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            engine.decode_frame(&bad_magic),
            Err(DecodeError::Frame(frame::FrameError::BadMagic))
        ));

        let mut bad_crc = frame_bytes.clone();
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0x01;
        assert!(matches!(
            engine.decode_frame(&bad_crc),
            Err(DecodeError::Frame(frame::FrameError::BadCrc { .. }))
        ));

        let truncated = &frame_bytes[..frame_bytes.len() - 3];
        assert!(matches!(
            engine.decode_frame(truncated),
            Err(DecodeError::TruncatedStream { .. })
        ));
    }

    #[test]
    fn shared_engine_handle_is_send_sync_and_decodes() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<SharedEngine>();
        let stream = sample(5);
        let shared = Engine::builder().threads(2).segment_bits(80).build_shared();
        let frame = shared.encode_frame(8, &stream).expect("valid K");
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let eng = std::sync::Arc::clone(&shared);
                let frame = frame.clone();
                std::thread::spawn(move || eng.decode_frame(&frame).expect("decodes").len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("no panic"), stream.len());
        }
    }

    #[test]
    fn default_threads_honors_env_clamping() {
        // Not a concurrency test — just the parse/clamp logic. The env var
        // is only read here, so mutation is safe within this test binary.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert!(default_threads() >= 1);
        std::env::set_var(THREADS_ENV, "garbage");
        assert!(default_threads() >= 1);
        std::env::set_var(THREADS_ENV, "99999");
        assert_eq!(default_threads(), exec::MAX_THREADS);
        std::env::remove_var(THREADS_ENV);
        assert!(default_threads() >= 1);
    }
}
