//! Bounded-memory streaming `9CSF` frame ingestion.
//!
//! [`FrameReader`] pulls a frame incrementally from any [`std::io::Read`] —
//! a pipe, a socket, a file too large to map — and yields one
//! [`StreamItem`] per segment without ever materializing the whole
//! frame. Memory is bounded by the [`DecodeLimits`]: the internal
//! window never holds more than one maximal segment
//! ([`DecodeLimits::max_shard_bytes`]) plus one read chunk.
//!
//! The reader runs no walk of its own: it feeds its window to the plan
//! builder's frame walker ([`crate::engine::plan`]) and hands on each
//! [`PlanEntry`] as an owned item, so it
//! yields the same byte ranges, damage reasons and claimed trits as
//! [`Engine::build_plan`] on the same bytes. Segment-level damage (a bad
//! CRC, a torn write, a truncated tail) never fails the stream: the walk
//! resynchronises — probing forward for the next CRC-valid segment or
//! parity marker, with the same [`DecodeLimits::max_resync_probes`]
//! budget — and reports the skipped bytes as a [`StreamItem::Damaged`]
//! entry. Window sliding and prefix-CRC restarts are the reader's own
//! policy.
//!
//! Only a size claim the window cannot hold may classify differently: a
//! segment header claiming more than
//! [`DecodeLimits::max_shard_bytes`] plus one read chunk, with that many
//! bytes still to come, is damage here
//! ([`DamageReason::LimitExceeded`]`("segment size claim")`) where the
//! in-memory walk would check the claimed payload's CRC or report the
//! frame truncated.
//!
//! Two ceilings guard against hostile or wedged sources:
//!
//! - every header-claimed size is checked against the `DecodeLimits`
//!   *before* the bytes are buffered (the same allocation-bomb guards
//!   as the in-memory parser);
//! - an optional per-read timeout ([`FrameReader::timeout`]) bounds how
//!   long any single underlying `read` may stall before the stream is
//!   abandoned with [`ReadError::TimedOut`].
//!
//! [`Engine::decode_stream`] is strict: it runs the walk fail-fast and
//! returns the same typed error as [`Engine::decode_frame`] on the same
//! bytes. Repair needs random access to a whole parity group, whose
//! members are interleaved across the entire frame — so for the repair
//! and salvage rungs, buffer the frame and run [`Engine::build_plan`] +
//! [`Engine::execute_plan`].

use crate::decode::{DecodeError, DecodeTable};
use crate::engine::crc::PrefixCrc;
pub use crate::engine::frame::StreamHeader;
use crate::engine::frame::{
    self, DamageReason, DecodeLimits, FrameError, HEADER_BYTES, HEADER_BYTES_V3, MAGIC,
    SEGMENT_HEADER_BYTES, VERSION_V3,
};
use crate::engine::plan::{self, BuildMode, PlanEntry, Step, Walker};
use crate::engine::Engine;
use ninec_testdata::trit::TritVec;
use std::fmt;
use std::io::Read;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Bytes requested from the underlying reader per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Error from streaming frame ingestion or streaming decode.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReadError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The frame structure is invalid (file-level damage, an exceeded
    /// limit, or — in strict decode — segment-level damage).
    Frame(FrameError),
    /// A CRC-valid segment still failed 9C decoding.
    Decode(DecodeError),
    /// A single underlying `read` stalled longer than the configured
    /// [`FrameReader::timeout`] budget.
    TimedOut {
        /// The configured per-read budget that was exceeded.
        limit: Duration,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "stream read failed: {e}"),
            ReadError::Frame(e) => write!(f, "{e}"),
            ReadError::Decode(e) => write!(f, "{e}"),
            ReadError::TimedOut { limit } => {
                write!(f, "stream read stalled past {limit:?}")
            }
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Frame(e) => Some(e),
            ReadError::Decode(e) => Some(e),
            ReadError::TimedOut { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<FrameError> for ReadError {
    fn from(e: FrameError) -> Self {
        ReadError::Frame(e)
    }
}

impl From<DecodeError> for ReadError {
    fn from(e: DecodeError) -> Self {
        ReadError::Decode(e)
    }
}

/// One data segment pulled off the stream, owning its bytes
/// (header + payload — re-parseable and CRC-verifiable in isolation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSegment {
    /// Walk position (segment index for undamaged streams).
    pub index: usize,
    /// Block size `K` the segment was encoded with.
    pub k: usize,
    /// Source trits the segment decodes to.
    pub source_trits: usize,
    /// Encoded payload trits.
    pub payload_trits: usize,
    /// The segment's full wire bytes.
    pub bytes: Vec<u8>,
}

impl OwnedSegment {
    /// The segment view over these bytes, from fields verified when they
    /// were parsed — no re-parse, no second CRC walk.
    pub(crate) fn view(&self) -> frame::ParsedSegment<'_> {
        let payload_end = SEGMENT_HEADER_BYTES + self.payload_trits.div_ceil(4);
        frame::ParsedSegment {
            k: self.k,
            source_trits: self.source_trits,
            payload_trits: self.payload_trits,
            payload: self
                .bytes
                .get(SEGMENT_HEADER_BYTES..payload_end)
                .unwrap_or(&[]),
        }
    }
}

/// One parity segment pulled off the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedParity {
    /// Parity group this shard protects.
    pub group: usize,
    /// Parity index within the group.
    pub pindex: usize,
    /// The GF(256) shard bytes (payload only).
    pub shard: Vec<u8>,
}

/// One classified region of the streamed frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StreamItem {
    /// A CRC-valid data segment.
    Data(OwnedSegment),
    /// A CRC-valid v3 parity segment.
    Parity(OwnedParity),
    /// A byte range that failed to parse and was resynchronised past.
    Damaged {
        /// Absolute byte range of the damage in the stream.
        byte_range: Range<usize>,
        /// What failed.
        reason: DamageReason,
        /// The damaged segment header's claimed source trits, when the
        /// header was readable (untrusted).
        claimed_source_trits: Option<usize>,
    },
}

/// Incremental, bounded-memory `9CSF` frame reader (see module docs).
pub struct FrameReader<R> {
    inner: R,
    limits: DecodeLimits,
    timeout: Option<Duration>,
    /// Window of not-yet-consumed stream bytes.
    buf: Vec<u8>,
    /// Absolute stream offset of `buf[0]`.
    pos: usize,
    /// The underlying reader reported end-of-input.
    eof: bool,
    /// High-water mark of `buf.len()`, for bounded-memory assertions.
    peak: usize,
    /// Items yielded so far (also the next walk index).
    items: usize,
    /// Parsed file header, cached so [`FrameReader::header`] stays
    /// answerable after the stream has been fully consumed.
    head: Option<StreamHeader>,
    /// The plan walk this reader feeds, once the header is read.
    walker: Option<Walker>,
    /// How the walk treats the first strict-order deviation.
    mode: BuildMode,
    /// Prefix-CRC index over `buf`, restarted whenever its front moves.
    crc: PrefixCrc,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with [`DecodeLimits::default`] and no timeout.
    pub fn new(inner: R) -> Self {
        Self::with_limits(inner, DecodeLimits::default())
    }

    /// Wraps `inner` with caller-chosen limits.
    pub fn with_limits(inner: R, limits: DecodeLimits) -> Self {
        FrameReader {
            inner,
            limits,
            timeout: None,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            peak: 0,
            items: 0,
            head: None,
            walker: None,
            mode: BuildMode::Full,
            crc: PrefixCrc::default(),
        }
    }

    /// Bounds how long any single underlying `read` may take. When a
    /// read's wall-clock exceeds the budget (including retry loops on
    /// [`std::io::ErrorKind::WouldBlock`]), the stream fails with
    /// [`ReadError::TimedOut`]. Best-effort: a blocking `read` that
    /// never returns cannot be interrupted from safe code — the check
    /// fires as soon as it does return.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// The limits bounding this reader's buffering.
    #[must_use]
    pub fn limits(&self) -> &DecodeLimits {
        &self.limits
    }

    /// Absolute stream offset of the next unconsumed byte.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// High-water mark of the internal window, in bytes — never exceeds
    /// [`DecodeLimits::max_shard_bytes`] + one segment header + one read
    /// chunk.
    #[must_use]
    pub fn peak_buffered(&self) -> usize {
        self.peak
    }

    /// Ceiling the internal window is allowed to reach.
    fn window_cap(&self) -> usize {
        self.limits
            .max_shard_bytes()
            .saturating_add(SEGMENT_HEADER_BYTES)
            .saturating_add(READ_CHUNK)
            .max(HEADER_BYTES_V3)
    }

    /// Reads until the window holds at least `target` bytes or the
    /// input ends. `target` callers keep within [`window_cap`](Self::window_cap).
    fn fill(&mut self, target: usize) -> Result<(), ReadError> {
        let mut chunk = [0u8; READ_CHUNK];
        while self.buf.len() < target && !self.eof {
            let want = READ_CHUNK.min(target.saturating_sub(self.buf.len()).max(512));
            let started = Instant::now();
            loop {
                match self.inner.read(&mut chunk[..want]) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.buf.extend_from_slice(&chunk[..n]);
                        self.peak = self.peak.max(self.buf.len());
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if let Some(limit) = self.timeout {
                            if started.elapsed() > limit {
                                return Err(ReadError::TimedOut { limit });
                            }
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(ReadError::Io(e)),
                }
                if let Some(limit) = self.timeout {
                    if started.elapsed() > limit {
                        return Err(ReadError::TimedOut { limit });
                    }
                }
            }
            if let Some(limit) = self.timeout {
                if started.elapsed() > limit {
                    return Err(ReadError::TimedOut { limit });
                }
            }
        }
        Ok(())
    }

    /// Drops `n` consumed bytes off the front of the window.
    fn consume(&mut self, n: usize) {
        if n > 0 {
            self.buf.drain(..n.min(self.buf.len()));
            self.pos += n;
            self.crc.restart();
        }
    }

    /// Reads and validates the file header, if not done yet.
    ///
    /// # Errors
    ///
    /// File-level problems are fatal: I/O errors, a stalled read, bad
    /// magic/version/header-CRC, or header claims beyond the limits.
    pub fn header(&mut self) -> Result<StreamHeader, ReadError> {
        if let Some(head) = self.head {
            return Ok(head);
        }
        self.fill(HEADER_BYTES)?;
        // v3 headers are two bytes longer; sniff the version byte.
        if self.buf.get(4) == Some(&VERSION_V3) {
            self.fill(HEADER_BYTES_V3)?;
        }
        if self.eof && self.buf.len() < HEADER_BYTES {
            // Short input: a magic prefix (or nothing at all) is a torn
            // header; anything else simply is not a frame.
            let n = self.buf.len().min(MAGIC.len());
            let err = if self.buf[..n] == MAGIC[..n] {
                FrameError::Truncated {
                    offset: self.pos + self.buf.len(),
                }
            } else {
                FrameError::BadMagic
            };
            return Err(ReadError::Frame(err));
        }
        let head = frame::parse_file_header(&self.buf, &self.limits)?;
        self.walker = Some(Walker::new(&head, &self.limits, self.mode));
        self.consume(head.header_bytes());
        self.head = Some(head);
        Ok(head)
    }

    /// Pulls the next classified item off the stream, or `None` at a
    /// clean end of input.
    ///
    /// # Errors
    ///
    /// I/O failures, a stalled read, file-level header problems, an
    /// exhausted [`DecodeLimits::max_resync_probes`] budget, or more
    /// scanned items than [`DecodeLimits::max_segments`] allows.
    /// Segment-level damage is yielded as [`StreamItem::Damaged`], not
    /// an error.
    pub fn next_item(&mut self) -> Result<Option<StreamItem>, ReadError> {
        self.header()?;
        let cap = self.window_cap();
        loop {
            let Some(walker) = self.walker.as_mut() else {
                return Ok(None);
            };
            let (item, end) =
                match walker.step(&self.buf, self.pos, self.eof, cap, &mut self.crc)? {
                    Step::Done => return Ok(None),
                    Step::Need { keep, until } => {
                        self.advance(keep, until, cap)?;
                        continue;
                    }
                    Step::Entry(entry) => {
                        let end = entry.byte_range().end;
                        (owned(entry, self.items, &self.buf, self.pos), end)
                    }
                };
            self.consume(end.saturating_sub(self.pos));
            self.items += 1;
            return Ok(Some(item));
        }
    }

    /// Grows the window to reach `until` (or the end of the input),
    /// first sliding it past the bytes before `keep` — reading past the
    /// window as needed — when it could not hold them all.
    fn advance(&mut self, keep: usize, until: usize, cap: usize) -> Result<(), ReadError> {
        if until.saturating_sub(self.pos) > cap {
            while self.pos < keep {
                let n = (keep - self.pos).min(self.buf.len());
                self.consume(n);
                if self.pos == keep || self.eof {
                    break;
                }
                self.fill((keep - self.pos).min(READ_CHUNK))?;
            }
        }
        self.fill(until.saturating_sub(self.pos).min(cap))
    }

    /// Makes the walk stop at the first strict-order deviation.
    pub(crate) fn fail_fast(&mut self) {
        self.mode = BuildMode::FailFast;
        if let Some(walker) = self.walker.as_mut() {
            walker.fail_fast();
        }
    }

    /// The strict verdict of the walk so far: final once
    /// [`next_item`](Self::next_item) has returned `None`.
    pub(crate) fn strict_error(&self) -> Option<FrameError> {
        self.walker.as_ref().and_then(Walker::verdict)
    }
}

/// The owned stream item for a plan entry the walk classified in
/// `window` (which starts at absolute offset `base`), `index` entries in.
fn owned(entry: PlanEntry<'_>, index: usize, window: &[u8], base: usize) -> StreamItem {
    match entry {
        PlanEntry::Data { seg, byte_range } => StreamItem::Data(OwnedSegment {
            index,
            k: seg.k,
            source_trits: seg.source_trits,
            payload_trits: seg.payload_trits,
            bytes: window
                .get(byte_range.start - base..byte_range.end - base)
                .map(<[u8]>::to_vec)
                .unwrap_or_default(),
        }),
        PlanEntry::Parity { par, .. } => StreamItem::Parity(OwnedParity {
            group: par.group,
            pindex: par.pindex,
            shard: par.payload.to_vec(),
        }),
        written_off => {
            let (reason, claimed_source_trits) = written_off
                .damage()
                .unwrap_or((DamageReason::Malformed("unparseable segment"), None));
            StreamItem::Damaged {
                byte_range: written_off.byte_range(),
                reason,
                claimed_source_trits,
            }
        }
    }
}

impl Engine {
    /// Decodes a `9CSF` frame **strictly** from any [`std::io::Read`] source
    /// without materializing the frame: segments stream through a
    /// bounded window ([`DecodeLimits::max_shard_bytes`] + one chunk)
    /// and decode in thread-count batches on the executor. The result —
    /// decoded trits or typed error — equals
    /// [`decode_frame`](Engine::decode_frame)'s on the same bytes, at
    /// every thread count, up to the window's size-claim limit (see the
    /// module docs).
    ///
    /// Parity segments of v3 frames are validated for order and skipped
    /// — streaming cannot repair (parity groups interleave across the
    /// whole frame); buffer the bytes and run the ladder on a
    /// [`build_plan`](Engine::build_plan) instead.
    ///
    /// # Errors
    ///
    /// [`ReadError::Io`] / [`ReadError::TimedOut`] from the source;
    /// [`ReadError::Frame`] for structural damage (this entry is
    /// fail-closed, like the in-memory strict decode);
    /// [`ReadError::Decode`] when a CRC-valid segment fails 9C decoding
    /// or a worker panics.
    pub fn decode_stream<R: Read>(&self, inner: R) -> Result<TritVec, ReadError> {
        let mut fr = FrameReader::with_limits(inner, *self.limits());
        self.decode_stream_reader(&mut fr)
    }

    /// [`decode_stream`](Engine::decode_stream) over a caller-configured
    /// [`FrameReader`] (custom limits or a read timeout).
    pub fn decode_stream_reader<R: Read>(
        &self,
        fr: &mut FrameReader<R>,
    ) -> Result<TritVec, ReadError> {
        let _span = ninec_obs::span("engine_decode_stream");
        fr.fail_fast();
        let head = fr.header().map_err(|e| match e {
            // The reader calls a magic prefix cut short a torn header;
            // strict decode, like the in-memory parse, calls input too
            // short for the magic not a frame.
            ReadError::Frame(FrameError::Truncated { offset }) if offset < MAGIC.len() => {
                ReadError::Frame(FrameError::BadMagic)
            }
            other => other,
        })?;
        // A bad table is reported only after the strict verdict, as in
        // the in-memory decode; until then there is nothing to decode.
        let table = DecodeTable::for_lengths(&head.table_lengths);
        let mut out = TritVec::with_capacity(head.source_len.min(1 << 24));
        let mut batch: Vec<OwnedSegment> = Vec::new();
        let mut failed: Option<DecodeError> = None;
        let batch_cap = self.threads().max(1);
        while let Some(item) = fr.next_item()? {
            if let StreamItem::Data(seg) = item {
                batch.push(seg);
                if batch.len() >= batch_cap {
                    self.drain_batch(&mut batch, table.as_ref(), &mut out, &mut failed);
                }
            }
        }
        self.drain_batch(&mut batch, table.as_ref(), &mut out, &mut failed);
        // The walk's strict verdict outranks every per-segment failure.
        if let Some(e) = fr.strict_error() {
            frame::publish_failure_metrics(&e);
            return Err(ReadError::Frame(e));
        }
        if table.is_none() {
            return Err(ReadError::Frame(FrameError::BadTable));
        }
        match failed {
            Some(e) => Err(ReadError::Decode(e)),
            None => Ok(out),
        }
    }

    /// Strictly decodes one batch of streamed segments and appends them,
    /// in order, to `out` — until the first failure, which lands in
    /// `failed` and stops decoding.
    fn drain_batch(
        &self,
        batch: &mut Vec<OwnedSegment>,
        table: Option<&DecodeTable>,
        out: &mut TritVec,
        failed: &mut Option<DecodeError>,
    ) {
        if let Some(table) = table.filter(|_| failed.is_none()) {
            // Each segment was CRC-verified once, when the walk classified
            // it: decode the owned bytes without re-parsing them.
            let segs: Vec<(usize, frame::ParsedSegment<'_>)> = batch
                .iter()
                .map(|owned| (owned.index, owned.view()))
                .collect();
            if let Err(e) = plan::decode_strict(self, &segs, table, self.cancel(), out) {
                *failed = Some(e);
            }
        }
        batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use std::io::Cursor;

    fn tv(s: &str) -> TritVec {
        s.parse().expect("valid trit literal")
    }

    fn sample_stream() -> TritVec {
        tv(&"0X0X01X001X0101X111111110000X1111X0110XX".repeat(30))
    }

    /// A reader that hands out at most `chunk` bytes per `read` call —
    /// exercising every partial-header/partial-payload path.
    struct Dribble<R> {
        inner: R,
        chunk: usize,
    }

    impl<R: Read> Read for Dribble<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).max(1);
            self.inner.read(&mut buf[..n])
        }
    }

    #[test]
    fn streamed_decode_is_byte_identical_to_in_memory() {
        let stream = sample_stream();
        for (g, r) in [(0u8, 0u8), (4, 1)] {
            let engine = Engine::builder()
                .threads(2)
                .segment_bits(64)
                .parity(g, r)
                .build();
            let frame_bytes = engine.encode_frame(8, &stream).expect("valid K");
            let in_memory = engine.decode_frame(&frame_bytes).expect("decodes");
            for threads in [1usize, 8] {
                let e = Engine::builder().threads(threads).segment_bits(64).build();
                for chunk in [1usize, 7, 64, 4096] {
                    let src = Dribble {
                        inner: Cursor::new(frame_bytes.clone()),
                        chunk,
                    };
                    let out = e.decode_stream(src).expect("streams");
                    assert_eq!(
                        out, in_memory,
                        "g={g} r={r} threads={threads} chunk={chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn reader_yields_classified_items_in_order() {
        let stream = sample_stream();
        let engine = Engine::builder()
            .threads(1)
            .segment_bits(64)
            .parity(2, 1)
            .build();
        let frame_bytes = engine.encode_frame(8, &stream).expect("valid K");
        let plan = engine.build_plan(&frame_bytes).expect("plans");
        let shards: Vec<&[u8]> = plan
            .entries()
            .iter()
            .filter_map(|e| match e {
                PlanEntry::Parity { par, .. } => Some(par.payload),
                _ => None,
            })
            .collect();
        let mut fr = FrameReader::new(Cursor::new(frame_bytes.clone()));
        let head = fr.header().expect("header reads");
        assert_eq!(head.segments, plan.intact_count());
        assert_eq!(head.parity_segments, shards.len());
        assert_eq!((head.parity_g, head.parity_r), (2, 1));
        let mut data = 0;
        let mut parity = 0;
        while let Some(item) = fr.next_item().expect("clean stream") {
            match item {
                StreamItem::Data(seg) => {
                    assert_eq!(seg.index, data);
                    // Owned bytes re-parse and re-CRC in isolation.
                    assert!(frame::segment_at(&seg.bytes, 0, seg.index, fr.limits(), None).is_ok());
                    data += 1;
                }
                StreamItem::Parity(par) => {
                    assert_eq!(par.group, parity); // r = 1: one shard per group
                    assert_eq!(par.pindex, 0);
                    assert_eq!(par.shard, shards[parity]);
                    parity += 1;
                }
                StreamItem::Damaged { .. } => panic!("clean frame has no damage"),
            }
        }
        assert_eq!(data, head.segments);
        assert_eq!(parity, head.parity_segments);
        assert_eq!(fr.position(), frame_bytes.len());
    }

    #[test]
    fn window_stays_bounded_by_the_limits() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let frame_bytes = engine.encode_frame(8, &stream).expect("valid K");
        // Tight-but-sufficient limits: segments are 64 source trits, and
        // 9C payloads can expand past the source length (case codes), so
        // leave expansion headroom while staying far below the default.
        let limits = DecodeLimits {
            max_segment_trits: 512,
            ..DecodeLimits::default()
        };
        let mut fr = FrameReader::with_limits(Cursor::new(frame_bytes.clone()), limits);
        let out = Engine::builder()
            .threads(1)
            .limits(limits)
            .build()
            .decode_stream_reader(&mut fr)
            .expect("streams under tight limits");
        assert_eq!(out, engine.decode_frame(&frame_bytes).expect("decodes"));
        assert!(
            fr.peak_buffered() <= limits.max_shard_bytes() + SEGMENT_HEADER_BYTES + READ_CHUNK,
            "peak {} exceeds the window cap",
            fr.peak_buffered()
        );
    }

    #[test]
    fn corrupt_segment_streams_as_damage_and_fails_strict() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let mut bad = engine.encode_frame(8, &stream).expect("valid K");
        bad[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55;

        // Strict streaming decode fails closed, like the in-memory one.
        let err = engine
            .decode_stream(Cursor::new(bad.clone()))
            .expect_err("strict fails");
        assert!(matches!(err, ReadError::Frame(_)), "{err:?}");

        // The raw reader classifies: damage, then intact segments.
        let mut fr = FrameReader::new(Cursor::new(bad.clone()));
        let first = fr.next_item().expect("reads").expect("has items");
        match first {
            StreamItem::Damaged {
                byte_range,
                reason,
                claimed_source_trits,
            } => {
                assert_eq!(byte_range.start, HEADER_BYTES);
                assert_eq!(reason, DamageReason::BadCrc);
                assert_eq!(claimed_source_trits, Some(64));
            }
            other => panic!("expected damage first, got {other:?}"),
        }
        let mut rest = 0usize;
        while let Some(item) = fr.next_item().expect("reads") {
            assert!(matches!(item, StreamItem::Data(_)));
            rest += 1;
        }
        assert_eq!(rest, fr.header().expect("header").segments - 1);
    }

    #[test]
    fn truncated_stream_ends_in_a_torn_tail_item() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let frame_bytes = engine.encode_frame(8, &stream).expect("valid K");
        let cut = frame_bytes.len() - 3;
        let mut fr = FrameReader::new(Cursor::new(frame_bytes[..cut].to_vec()));
        let mut last = None;
        while let Some(item) = fr.next_item().expect("reads") {
            last = Some(item);
        }
        match last.expect("items were yielded") {
            StreamItem::Damaged {
                reason, byte_range, ..
            } => {
                assert_eq!(reason, DamageReason::Truncated);
                assert_eq!(byte_range.end, cut);
            }
            other => panic!("expected torn tail, got {other:?}"),
        }
        // Strict decode: typed truncation error.
        assert!(matches!(
            engine.decode_stream(Cursor::new(frame_bytes[..cut].to_vec())),
            Err(ReadError::Frame(FrameError::Truncated { .. }))
        ));
    }

    #[test]
    fn resync_reads_nothing_ahead_for_a_header_no_payload_can_fix() {
        // A damaged first segment, then 16 bytes of 0x01 — a header with
        // nonzero reserved bytes and an odd K, claiming a 4 MiB payload —
        // then a megabyte of small valid segments. The damaged segment's
        // source-trit field is 0x01010101 too, so no probe position inside
        // it reads a plausible header either.
        let payload = tv("0110X01");
        let mut seg = Vec::new();
        frame::write_segment(&mut seg, 8, 16, &payload).expect("segment fits");
        let count = (1 << 20) / seg.len();
        let mut bytes = Vec::new();
        frame::write_header(&mut bytes, [1, 2, 5, 5, 5, 5, 5, 5, 4], 1 + count as u32, 0);
        frame::write_segment(&mut bytes, 8, 0x0101_0101, &payload).expect("segment fits");
        bytes[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55;
        bytes.extend_from_slice(&[0x01; SEGMENT_HEADER_BYTES]);
        let damage_end = bytes.len();
        for _ in 0..count {
            bytes.extend_from_slice(&seg);
        }
        let mut fr = FrameReader::new(Cursor::new(bytes.clone()));
        match fr.next_item().expect("reads").expect("has items") {
            StreamItem::Damaged { byte_range, .. } => {
                assert_eq!(byte_range, HEADER_BYTES..damage_end);
            }
            other => panic!("expected damage first, got {other:?}"),
        }
        let mut intact = 0;
        while let Some(item) = fr.next_item().expect("reads") {
            assert!(matches!(item, StreamItem::Data(_)));
            intact += 1;
        }
        assert_eq!(intact, count);
        // The claim never made the reader buffer toward it.
        assert!(
            fr.peak_buffered() <= READ_CHUNK,
            "peak {} of a {}-byte stream",
            fr.peak_buffered(),
            bytes.len()
        );
    }

    #[test]
    fn resync_probe_cap_applies_to_streams() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let mut bad = engine.encode_frame(8, &stream).expect("valid K");
        bad[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55;
        let tight = DecodeLimits {
            max_resync_probes: 1,
            ..DecodeLimits::default()
        };
        let mut fr = FrameReader::with_limits(Cursor::new(bad), tight);
        let err = fr.next_item().expect_err("probe cap fires");
        assert!(matches!(
            err,
            ReadError::Frame(FrameError::LimitExceeded {
                what: "resync probes",
                ..
            })
        ));
    }

    #[test]
    fn not_a_frame_is_a_typed_header_error() {
        let mut fr = FrameReader::new(Cursor::new(b"this is not a frame at all".to_vec()));
        assert!(matches!(
            fr.header(),
            Err(ReadError::Frame(FrameError::BadMagic))
        ));
        let empty: &[u8] = &[];
        let mut fr = FrameReader::new(empty);
        assert!(matches!(
            fr.header(),
            Err(ReadError::Frame(FrameError::Truncated { .. }))
        ));
    }

    #[test]
    fn stalled_read_times_out() {
        /// Never yields data, never ends: a wedged pipe.
        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(5));
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "stall"))
            }
        }
        let mut fr = FrameReader::new(Stalled).timeout(Duration::from_millis(20));
        let err = fr.header().expect_err("stall must time out");
        assert!(matches!(err, ReadError::TimedOut { .. }), "{err:?}");
    }

    #[test]
    fn trailing_garbage_fails_strict_streaming() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let mut bytes = engine.encode_frame(8, &stream).expect("valid K");
        // Append a whole duplicate of the last segment: parseable, but
        // beyond the claimed count.
        let plan = engine.build_plan(&bytes).expect("plans");
        let last_len = plan.entries().last().expect("nonempty").byte_range().len();
        let tail = bytes[bytes.len() - last_len..].to_vec();
        bytes.extend_from_slice(&tail);
        let err = engine
            .decode_stream(Cursor::new(bytes))
            .expect_err("trailing data fails strict");
        assert!(
            matches!(
                err,
                ReadError::Frame(FrameError::Malformed {
                    what: "trailing bytes after the last segment",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn a_body_too_short_for_its_claims_outranks_earlier_damage_when_streamed() {
        // The header claims far more segments than the body can hold and
        // the first segment is damaged: strict decode reports the short
        // body, so the fail-fast stream must read on to its end to say so.
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let clean = engine.encode_frame(8, &stream).expect("valid K");
        let mut bytes = Vec::new();
        let mut lengths = [0u8; 9];
        lengths.copy_from_slice(&clean[6..15]);
        frame::write_header(&mut bytes, lengths, 100_000, stream.len() as u64);
        bytes.extend_from_slice(&clean[HEADER_BYTES..]);
        bytes[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55;
        let want = engine.decode_frame(&bytes).expect_err("strict rejects");
        assert_eq!(
            want,
            DecodeError::TruncatedStream {
                offset: bytes.len()
            }
        );
        let src = Dribble {
            inner: Cursor::new(bytes),
            chunk: 7,
        };
        match engine.decode_stream(src) {
            Err(ReadError::Frame(e)) => assert_eq!(DecodeError::from(e), want),
            other => panic!("expected the truncation, got {other:?}"),
        }
    }

    /// The engine's cancel token covers streamed decodes too, with the
    /// in-memory decode's verdict on the same bytes — a strict frame
    /// error included, which outranks the trip.
    #[test]
    fn streaming_honours_the_engines_cancel_token() {
        let plain = Engine::builder().segment_bits(64).build();
        let clean = plain.encode_frame(8, &sample_stream()).expect("valid K");
        let reference = plain.decode_frame(&clean).expect("decodes");
        let mut bad = clean.clone();
        bad[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55;
        let tripped = CancelToken::new();
        tripped.cancel();
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let live = CancelToken::after(Duration::from_secs(3600));
        let cases = [
            (tripped, Some(DecodeError::Cancelled)),
            (expired, Some(DecodeError::DeadlineExceeded)),
            (live, None),
        ];
        for threads in [1usize, 2] {
            for (token, want) in &cases {
                let engine = Engine::builder()
                    .threads(threads)
                    .segment_bits(64)
                    .cancel_token(token.clone())
                    .build();
                let streamed = engine.decode_stream(Cursor::new(clean.clone()));
                match (&streamed, want) {
                    (Err(ReadError::Decode(e)), Some(want)) => assert_eq!(e, want),
                    (Ok(out), None) => assert_eq!(out, &reference),
                    _ => panic!("threads={threads} want {want:?}, got {streamed:?}"),
                }
                let in_memory = engine.decode_frame(&clean);
                assert_eq!(in_memory.err().as_ref(), want.as_ref(), "threads={threads}");
                let Err(ReadError::Frame(e)) = engine.decode_stream(Cursor::new(bad.clone()))
                else {
                    panic!("threads={threads}: the frame error must outrank {want:?}");
                };
                assert_eq!(engine.decode_frame(&bad), Err(DecodeError::from(e)));
            }
        }
    }

    #[test]
    fn errors_display_and_chain() {
        let io = ReadError::Io(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "x"));
        let frame = ReadError::Frame(FrameError::BadMagic);
        let decode = ReadError::Decode(DecodeError::MissingParameter { what: "k" });
        let timeout = ReadError::TimedOut {
            limit: Duration::from_secs(1),
        };
        for e in [&io, &frame, &decode, &timeout] {
            assert!(!e.to_string().is_empty());
        }
        use std::error::Error as _;
        assert!(io.source().is_some());
        assert!(timeout.source().is_none());
    }
}
