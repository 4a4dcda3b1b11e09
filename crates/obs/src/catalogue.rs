//! The typed catalogue: every metric and span the `ninec` data plane
//! publishes — codec, engine, archive and service — declared once, with
//! its kind.
//!
//! An entry is a `const` holding its name and a reference to its own
//! `static` cell. The cell is looked up in the [`global()`] registry on
//! the entry's first publish and kept, so a warm call makes no registry
//! lookup, and a metric still appears in the export only once something
//! has published it. [`crate::reset`] zeroes cells in place, so the kept
//! handles stay valid. Lookup by name ([`crate::counter`] and friends)
//! remains for names built at run time and for readers.

use crate::live::{global, start_span, Counter, Histogram, SampleBatch, SpanTimer};
use std::sync::OnceLock;

/// A catalogue counter: its name and its lazily resolved cell.
#[derive(Debug, Clone, Copy)]
pub struct CounterDef {
    name: &'static str,
    cell: &'static OnceLock<Counter>,
}

impl CounterDef {
    const fn new(name: &'static str, cell: &'static OnceLock<Counter>) -> Self {
        Self { name, cell }
    }

    /// The exported name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        self.name
    }

    /// The counter, registered on the first call.
    #[must_use]
    pub fn handle(self) -> &'static Counter {
        self.cell.get_or_init(|| global().counter(self.name))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(self, n: u64) {
        self.handle().add(n);
    }
}

/// A catalogue histogram: its name and its lazily resolved cell.
#[derive(Debug, Clone, Copy)]
pub struct HistogramDef {
    name: &'static str,
    cell: &'static OnceLock<Histogram>,
}

impl HistogramDef {
    const fn new(name: &'static str, cell: &'static OnceLock<Histogram>) -> Self {
        Self { name, cell }
    }

    /// The exported name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        self.name
    }

    /// The histogram, registered on the first call.
    #[must_use]
    pub fn handle(self) -> &'static Histogram {
        self.cell.get_or_init(|| global().histogram(self.name))
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(self, value: u64) {
        self.handle().record(value);
    }

    /// Records every sample of `batch`; registers nothing for an empty
    /// batch.
    pub fn record_batch(self, batch: &SampleBatch) {
        if batch.count() > 0 {
            self.handle().record_batch(batch);
        }
    }
}

/// A catalogue span: its name and its `span.<name>.ns` duration
/// histogram.
#[derive(Debug, Clone, Copy)]
pub struct SpanDef {
    name: &'static str,
    hist: HistogramDef,
}

impl SpanDef {
    /// The span's name, as trace events carry it.
    #[must_use]
    pub const fn name(self) -> &'static str {
        self.name
    }

    /// Opens the span; it records its duration when dropped. Inert (and
    /// free) while [`runtime_enabled`](crate::runtime_enabled) is off.
    #[must_use]
    pub fn start(self) -> SpanTimer {
        if !crate::runtime_enabled() {
            return SpanTimer::inert();
        }
        start_span(self.name, self.hist.handle().clone())
    }
}

/// A [`CounterDef`] with a cell of its own.
macro_rules! counter {
    ($name:expr) => {
        CounterDef::new($name, {
            static CELL: OnceLock<Counter> = OnceLock::new();
            &CELL
        })
    };
}

/// A [`HistogramDef`] with a cell of its own.
macro_rules! histogram {
    ($name:expr) => {
        HistogramDef::new($name, {
            static CELL: OnceLock<Histogram> = OnceLock::new();
            &CELL
        })
    };
}

/// Declares `pub const` entries of one kind, each with its doc.
macro_rules! entries {
    ($kind:ident: $ty:ident { $($(#[$doc:meta])* $id:ident = $name:literal;)* }) => {
        $( $(#[$doc])* pub const $id: $ty = $kind!($name); )*
    };
}

/// Declares `pub const` span entries named `$name`, timing into
/// `span.$name.ns`.
macro_rules! spans {
    ($($(#[$doc:meta])* $id:ident = $name:literal;)*) => {
        $(
            $(#[$doc])*
            pub const $id: SpanDef = SpanDef {
                name: $name,
                hist: histogram!(concat!("span.", $name, ".ns")),
            };
        )*
    };
}

// --- codec ------------------------------------------------------------

entries!(counter: CounterDef {
    /// Total `K`-bit blocks encoded.
    ENCODE_BLOCKS = "ninec.encode.blocks";
    /// Total encoded bits `|T_E|` emitted.
    ENCODE_BITS = "ninec.encode.encoded_bits";
    /// Total source symbols `|T_D|` consumed.
    ENCODE_SOURCE_BITS = "ninec.encode.source_bits";
    /// Don't-cares that survived into verbatim payload.
    ENCODE_LEFTOVER_X = "ninec.encode.leftover_x";
    /// Decode runs completed: one per decoder that emitted a block.
    DECODE_RUNS = "ninec.decode.runs";
    /// Blocks decoded.
    DECODE_BLOCKS = "ninec.decode.blocks";
    /// Compressed bits consumed.
    DECODE_BITS_IN = "ninec.decode.bits_in";
    /// Symbols emitted (clipped to `source_len`).
    DECODE_SYMBOLS_OUT = "ninec.decode.symbols_out";
});

/// Each case's hits, `ninec.encode.case.C1` … `.C9`, by case index.
pub const ENCODE_CASES: [CounterDef; 9] = [
    counter!("ninec.encode.case.C1"),
    counter!("ninec.encode.case.C2"),
    counter!("ninec.encode.case.C3"),
    counter!("ninec.encode.case.C4"),
    counter!("ninec.encode.case.C5"),
    counter!("ninec.encode.case.C6"),
    counter!("ninec.encode.case.C7"),
    counter!("ninec.encode.case.C8"),
    counter!("ninec.encode.case.C9"),
];

entries!(histogram: HistogramDef {
    /// Per-block encoded size (codeword + payload) in bits.
    ENCODE_BLOCK_BITS = "ninec.encode.block_bits";
    /// Leftover-X density per run, in percent of `|T_D|`.
    ENCODE_LX_PCT = "ninec.encode.leftover_x_pct";
    /// Encoder throughput per run, in Mbit/s of source stream.
    ENCODE_THROUGHPUT = "ninec.encode.throughput_mbit_s";
});

// --- engine -----------------------------------------------------------

entries!(counter: CounterDef {
    /// Jobs completed by executor workers — segment encodes, decodes,
    /// repair and salvage jobs — at every thread count, the caller
    /// included.
    ENGINE_SEGMENTS = "ninec.engine.segments";
    /// Segments recovered byte-identically by salvage-mode decode from
    /// frames that contained damage, once per salvage run (clean frames
    /// record nothing).
    ENGINE_SALVAGED_SEGMENTS = "ninec.engine.salvaged_segments";
    /// Decode worker panics caught by the panic-isolated pool.
    ENGINE_WORKER_PANICS = "ninec.engine.worker_panics";
    /// Segment jobs abandoned because the caller's cancel token tripped
    /// (cancel or deadline) mid-decode.
    ENGINE_CANCELLED_JOBS = "ninec.engine.cancelled_jobs";
    /// `9CSF` CRC mismatches (file-header or segment) seen on a frame's
    /// main parse or scan walk. Resync probes never count: they are
    /// expected to fail.
    FRAME_CRC_FAILURES = "ninec.frame.crc_failures";
    /// Full header/CRC scan passes over a frame body, one per decode
    /// plan build.
    FRAME_SCAN_PASSES = "ninec.frame.scan_passes";
    /// Frames or segments rejected by a decode-limit ceiling before any
    /// allocation happened.
    FRAME_LIMIT_REJECTIONS = "ninec.frame.limit_rejections";
    /// Byte positions probed for the next valid segment after damage.
    FRAME_RESYNC_PROBES = "ninec.frame.resync_probes";
    /// Bytes those probes folded through the CRC kernel.
    FRAME_RESYNC_CRC_BYTES = "ninec.frame.resync_crc_bytes";
    /// Damaged segments rebuilt from parity that a repair report keeps.
    ECC_REPAIRED_SEGMENTS = "ninec.ecc.repaired_segments";
    /// Parity bits emitted by v3 frame encodes.
    ECC_PARITY_BITS = "ninec.ecc.parity_bits";
    /// Damaged segments the repair rung could not reconstruct.
    ECC_REPAIR_FAILURES = "ninec.ecc.repair_failures";
    /// Segments whose CRC (and, where grouped, parity) the archive
    /// scrubber walked.
    ARCHIVE_SCRUBBED_SEGMENTS = "ninec.archive.scrubbed_segments";
    /// Rotted archive segments rebuilt from parity and rewritten.
    ARCHIVE_REPAIRED_SEGMENTS = "ninec.archive.repaired_segments";
    /// Archive segments beyond the parity budget.
    ARCHIVE_LOST_SEGMENTS = "ninec.archive.lost_segments";
    /// Segment appends satisfied by the archive's dedup table.
    ARCHIVE_DEDUP_HITS = "ninec.archive.dedup_hits";
});

entries!(histogram: HistogramDef {
    /// Wall-clock nanoseconds spent encoding one segment.
    ENGINE_SEG_ENCODE_NS = "ninec.engine.segment.encode_ns";
    /// Wall-clock nanoseconds spent decoding one segment.
    ENGINE_SEG_DECODE_NS = "ninec.engine.segment.decode_ns";
});

/// Worker indices the `ninec.engine.worker.<i>.busy_ns` family covers.
pub const MAX_WORKERS: usize = 256;

/// The name of worker `worker`'s busy-time counter:
/// `ninec.engine.worker.<i>.busy_ns`.
#[must_use]
pub fn worker_busy_ns_name(worker: usize) -> String {
    format!("ninec.engine.worker.{worker}.busy_ns")
}

/// Counter `ninec.engine.worker.<i>.busy_ns`: executor worker `i`'s
/// cumulative job run time in nanoseconds, resolved once per index.
///
/// # Panics
///
/// Panics if `worker >= MAX_WORKERS`.
#[must_use]
pub fn worker_busy_ns(worker: usize) -> &'static Counter {
    static CELLS: [OnceLock<Counter>; MAX_WORKERS] = [const { OnceLock::new() }; MAX_WORKERS];
    CELLS[worker].get_or_init(|| global().counter(&worker_busy_ns_name(worker)))
}

// --- service ----------------------------------------------------------

entries!(counter: CounterDef {
    /// Connections accepted (including ones refused as busy).
    SERVE_CONNECTIONS = "ninec.serve.connections";
    /// Requests read off the wire.
    SERVE_REQUESTS = "ninec.serve.requests";
    /// Requests answered `Ok`.
    SERVE_OK = "ninec.serve.ok";
    /// Connections or requests refused as busy.
    SERVE_BUSY = "ninec.serve.busy";
    /// Repair or salvage requests downgraded to strict by degraded mode.
    SERVE_SHED = "ninec.serve.shed";
    /// Requests refused by a tenant's rate limit.
    SERVE_RATE_LIMITED = "ninec.serve.rate_limited";
    /// Requests answered with a partial recovery (lossy salvage).
    SERVE_PARTIAL = "ninec.serve.partial";
    /// Requests answered as failed or as a bad request.
    SERVE_FAILED = "ninec.serve.failed";
    /// Requests whose effective deadline tripped before they finished.
    SERVE_DEADLINE_EXCEEDED = "ninec.serve.deadline_exceeded";
    /// Decodes a tripped cancel token (deadline or hang-up) stopped.
    SERVE_CANCELLED_JOBS = "ninec.serve.cancelled_jobs";
    /// Requests a retrying client sent again.
    SERVE_CLIENT_RETRIES = "ninec.serve.client_retries";
});

// --- spans ------------------------------------------------------------

spans! {
    /// `Encoder::encode_stream`.
    SPAN_ENCODE_STREAM = "encode_stream";
    /// `Encoder::encode_chunked`.
    SPAN_ENCODE_CHUNKED = "encode_chunked";
    /// A session's serial decode of a raw stream.
    SPAN_DECODE_SESSION = "decode_session";
    /// `Engine::encode`.
    SPAN_ENGINE_ENCODE = "engine_encode";
    /// `Engine::encode_frame` and `encode_frame_best_k`.
    SPAN_ENGINE_ENCODE_FRAME = "engine_encode_frame";
    /// `Engine::decode_frame`.
    SPAN_ENGINE_DECODE_FRAME = "engine_decode_frame";
    /// `Engine::build_plan`.
    SPAN_ENGINE_BUILD_PLAN = "engine_build_plan";
    /// `Engine::execute_plan`.
    SPAN_ENGINE_EXECUTE_PLAN = "engine_execute_plan";
    /// `Engine::decode_stream_reader`.
    SPAN_ENGINE_DECODE_STREAM = "engine_decode_stream";
    /// `Archive::append_frame`.
    SPAN_ARCHIVE_APPEND = "archive_append";
    /// `Archive::decode_range`.
    SPAN_ARCHIVE_RANGE_DECODE = "archive_range_decode";
    /// `Archive::scrub`.
    SPAN_ARCHIVE_SCRUB = "archive_scrub";
    /// One frame of an archive scrub.
    SPAN_SCRUB_FRAME = "scrub_frame";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_histograms_follow_the_conventions() {
        assert_eq!(ENCODE_CASES[0].name(), "ninec.encode.case.C1");
        assert_eq!(ENCODE_CASES[8].name(), "ninec.encode.case.C9");
        assert_eq!(worker_busy_ns_name(7), "ninec.engine.worker.7.busy_ns");
        assert_eq!(SPAN_SCRUB_FRAME.name(), "scrub_frame");
        assert_eq!(SPAN_SCRUB_FRAME.hist.name(), "span.scrub_frame.ns");
    }

    #[test]
    fn an_entry_keeps_the_cell_it_resolved() {
        let first = SERVE_CLIENT_RETRIES.handle();
        assert!(std::ptr::eq(first, SERVE_CLIENT_RETRIES.handle()));
        let before = first.get();
        SERVE_CLIENT_RETRIES.add(2);
        assert_eq!(
            crate::counter(SERVE_CLIENT_RETRIES.name()).get(),
            before + 2
        );
    }
}
