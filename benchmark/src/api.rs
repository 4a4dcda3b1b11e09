//! The one adapter between the benchmark and the ninec crates.
//!
//! Every call the benchmark makes into the program goes through this
//! file, and only through public API: `Engine`, `DecodeSession`,
//! `Archive`, `ninec_serve::{Server, Client}`, `frame::crc32` and the
//! `ninec_obs` registry. When a refactor renames or folds an entry
//! point, this is the file that follows it; the workloads and the
//! numbers they report stay put. Nothing here uses the frame-walker
//! internals slated for removal (the salvage scan types, the eager frame
//! parser, the `Engine` repair/salvage shims or the old pool).
//!
//! Errors cross the boundary as their display text: the benchmark only
//! counts and reports them.

use std::io::Read;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;

use ninec::engine::{frame, Archive, FrameReader, ScrubMode};
use ninec::{DecodeSession, Encoded, Engine, FramePlan, PlanEntry, SalvageReport};
use ninec_serve::{Client, ServeConfig, Server};
use ninec_testdata::trit::TritVec;

pub use ninec::Policy;

pub type Result<T> = std::result::Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// One engine configuration plus the decode session matching it.
pub struct Codec {
    engine: Engine,
    session: DecodeSession,
    k: usize,
}

impl Codec {
    /// Block size `k`, `threads` workers, `segment_bits`-trit segments and
    /// optional `(g, r)` parity (v3 frames); `None` writes v2 frames.
    pub fn new(k: usize, threads: usize, segment_bits: usize, parity: Option<(u8, u8)>) -> Codec {
        let (g, r) = parity.unwrap_or((0, 0));
        Codec {
            engine: Engine::builder()
                .threads(threads)
                .segment_bits(segment_bits)
                .parity(g, r)
                .build(),
            session: DecodeSession::new().threads(threads),
            k,
        }
    }

    /// The codec the service uses for its compress verb, so a reply can
    /// be compared with an in-process reference byte for byte.
    pub fn like_server(k: usize, threads: usize) -> Codec {
        let config = ServeConfig::default();
        Codec::new(k, threads, config.segment_bits, Some(config.parity))
    }

    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    pub fn encode_frame(&self, src: &TritVec) -> Result<Vec<u8>> {
        self.engine.encode_frame(self.k, src).map_err(text)
    }

    /// `Engine::encode`: the unframed 9C stream.
    pub fn encode(&self, src: &TritVec) -> Result<Encoding> {
        self.engine.encode(self.k, src).map(Encoding).map_err(text)
    }

    /// `DecodeSession::decode` of an unframed stream.
    pub fn decode_encoded(&self, encoded: &Encoding) -> Result<TritVec> {
        self.session.decode(&encoded.0).map_err(text)
    }

    /// `DecodeSession::decode_frame`: the whole ladder up to `policy`.
    pub fn decode_frame(&self, bytes: &[u8], policy: Policy) -> Result<Decoded> {
        let outcome = self.session.decode_frame(bytes, policy).map_err(text)?;
        let mut decoded = outcome.report.as_ref().map(Decoded::of).unwrap_or_default();
        decoded.trits = outcome.trits;
        Ok(decoded)
    }

    /// The single header/CRC scan a frame decode starts with.
    pub fn plan<'a>(&self, bytes: &'a [u8]) -> Result<Plan<'a>> {
        self.session.plan(bytes).map(Plan).map_err(text)
    }

    /// One ladder rung against a plan.
    pub fn execute(&self, plan: &Plan<'_>, policy: Policy) -> Result<Decoded> {
        let report = self.session.execute_plan(&plan.0, policy).map_err(text)?;
        let mut decoded = Decoded::of(&report);
        decoded.trits = report.trits;
        Ok(decoded)
    }

    /// Strict streaming decode through a `FrameReader`; returns the
    /// trits and the reader's peak buffered bytes.
    pub fn decode_stream<R: Read>(&self, source: R) -> Result<(TritVec, usize)> {
        let mut reader = FrameReader::with_limits(source, *self.engine.limits());
        let trits = self
            .engine
            .decode_stream_reader(&mut reader)
            .map_err(text)?;
        Ok((trits, reader.peak_buffered()))
    }

    /// Where each segment of a trusted frame sits, from its decode plan.
    pub fn layout(&self, bytes: &[u8]) -> Result<Layout> {
        let plan = self.session.plan(bytes).map_err(text)?;
        let groups = plan.groups();
        let mut slots = Vec::new();
        let mut trit = 0usize;
        let mut index = 0usize;
        for entry in plan.entries() {
            let kind = match entry {
                PlanEntry::Data { seg, .. } => {
                    let trits = trit..trit + seg.source_trits;
                    trit = trits.end;
                    index += 1;
                    SlotKind::Data {
                        group: frame::group_of(index - 1, groups),
                        trits,
                    }
                }
                PlanEntry::Parity { .. } => SlotKind::Parity,
                _ => return Err("layout of a damaged frame".to_string()),
            };
            slots.push(Slot {
                bytes: entry.byte_range(),
                kind,
            });
        }
        Ok(Layout {
            slots,
            parity_r: usize::from(plan.parity_r()),
        })
    }
}

/// Byte offset of the first payload byte in a segment slot.
pub const SEGMENT_HEADER_BYTES: usize = frame::SEGMENT_HEADER_BYTES;

/// `frame::crc32`, the checksum every segment verify runs.
pub fn crc32(bytes: &[u8]) -> u32 {
    frame::crc32(bytes)
}

/// An unframed encode and its case statistics.
pub struct Encoding(Encoded);

impl Encoding {
    pub fn encoded_bits(&self) -> usize {
        self.0.compressed_len()
    }

    /// `(raw halves, all halves)`: halves copied verbatim (cases C5–C8
    /// carry one, C9 two) against two halves per block.
    pub fn raw_halves(&self) -> (u64, u64) {
        let c = self.0.stats().case_counts;
        (
            c[4] + c[5] + c[6] + c[7] + 2 * c[8],
            2 * self.0.stats().blocks,
        )
    }
}

/// A frame decode's trits and damage map.
#[derive(Debug, Default)]
pub struct Decoded {
    pub trits: TritVec,
    /// Output ranges erased to X (damage parity could not repair).
    pub erased: Vec<Range<usize>>,
    /// Segments rebuilt byte-exactly from parity.
    pub repaired: usize,
}

impl Decoded {
    fn of(report: &SalvageReport) -> Decoded {
        Decoded {
            trits: TritVec::new(),
            erased: report
                .damaged
                .iter()
                .filter(|d| !d.reason.is_repaired() && !d.trit_range.is_empty())
                .map(|d| d.trit_range.clone())
                .collect(),
            repaired: report.repaired_segments(),
        }
    }
}

/// A decode plan (opaque: the workloads only time and count it).
pub struct Plan<'a>(FramePlan<'a>);

impl Plan<'_> {
    pub fn segments(&self) -> usize {
        self.0.entries().len()
    }
}

pub struct Slot {
    pub bytes: Range<usize>,
    pub kind: SlotKind,
}

pub enum SlotKind {
    Data { group: usize, trits: Range<usize> },
    Parity,
}

pub struct Layout {
    pub slots: Vec<Slot>,
    pub parity_r: usize,
}

/// A `.9ca` archive.
pub struct Store(Archive);

pub struct Appended {
    pub segments: usize,
    pub dedup_hits: u64,
}

impl Store {
    pub fn create(path: &Path, codec: &Codec) -> Result<Store> {
        Archive::create(path, &codec.engine)
            .map(Store)
            .map_err(text)
    }

    pub fn append(&mut self, frame_bytes: &[u8]) -> Result<Appended> {
        let receipt = self.0.append_frame(frame_bytes).map_err(text)?;
        Ok(Appended {
            segments: receipt.segments,
            dedup_hits: receipt.dedup_hits,
        })
    }

    pub fn range(&self, frame: usize, start: usize, len: usize) -> Result<TritVec> {
        self.0.decode_range(frame, start, len).map_err(text)
    }

    pub fn extract(&self, frame: usize) -> Result<Vec<u8>> {
        self.0.extract_frame(frame).map_err(text)
    }

    /// A read-only scrub: `(clean, segment references walked)`.
    pub fn scrub_check(&mut self) -> Result<(bool, u64)> {
        let report = self.0.scrub(ScrubMode::Check).map_err(text)?;
        Ok((report.is_clean(), report.scrubbed_segments))
    }

    /// Store payload bytes the current epoch commits.
    pub fn stored_bytes(&self) -> u64 {
        self.0.stats().stored_bytes
    }

    /// Both files of the archive at `path`.
    pub fn files(path: &Path) -> [std::path::PathBuf; 2] {
        let mut index = path.as_os_str().to_os_string();
        index.push(ninec::engine::archive::INDEX_SUFFIX);
        [path.to_path_buf(), index.into()]
    }
}

/// The engine counters the traced run reads from the obs registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    /// Σ `ninec.engine.worker.<i>.busy_ns`.
    pub worker_busy_ns: u64,
    pub scan_passes: u64,
    pub steals: u64,
    pub repair_failures: u64,
}

impl EngineCounters {
    pub fn now() -> EngineCounters {
        let mut c = EngineCounters::default();
        for (name, v) in ninec_obs::snapshot().counters {
            match name.as_str() {
                "ninec.frame.scan_passes" => c.scan_passes = v,
                "ninec.engine.steals" => c.steals = v,
                "ninec.ecc.repair_failures" => c.repair_failures = v,
                n if n.starts_with("ninec.engine.worker.") && n.ends_with(".busy_ns") => {
                    c.worker_busy_ns += v;
                }
                _ => {}
            }
        }
        c
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: EngineCounters) -> EngineCounters {
        EngineCounters {
            worker_busy_ns: self.worker_busy_ns.saturating_sub(earlier.worker_busy_ns),
            scan_passes: self.scan_passes.saturating_sub(earlier.scan_passes),
            steals: self.steals.saturating_sub(earlier.steals),
            repair_failures: self.repair_failures.saturating_sub(earlier.repair_failures),
        }
    }
}

impl std::ops::AddAssign for EngineCounters {
    fn add_assign(&mut self, d: EngineCounters) {
        self.worker_busy_ns += d.worker_busy_ns;
        self.scan_passes += d.scan_passes;
        self.steals += d.steals;
        self.repair_failures += d.repair_failures;
    }
}

pub fn obs_compiled() -> bool {
    ninec_obs::is_compiled()
}

/// The flight recorder's runtime switch.
pub fn set_flight_recorder(on: bool) {
    ninec_obs::set_trace_enabled(on);
}

/// The obs runtime switch (metrics, spans and the flight recorder).
pub fn set_obs_runtime(on: bool) {
    ninec_obs::set_runtime_enabled(on);
}

/// A running codec service hosting one archive.
pub struct Service(Server);

/// `Server::stats` counters the serve workload reports as deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounts {
    pub connections: u64,
    pub ok: u64,
    pub busy: u64,
    pub shed: u64,
    pub failed: u64,
    pub partial: u64,
    pub deadline_exceeded: u64,
}

impl Service {
    pub fn start(archive: &Path, handler_threads: usize, decode_threads: usize) -> Result<Service> {
        let config = ServeConfig {
            http: false,
            handler_threads,
            decode_threads,
            archive: Some(archive.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        Server::start(config).map(Service).map_err(text)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    pub fn counts(&self) -> ServiceCounts {
        let s = self.0.stats();
        ServiceCounts {
            connections: s.connections,
            ok: s.ok,
            busy: s.busy,
            shed: s.shed,
            failed: s.failed,
            partial: s.partial,
            deadline_exceeded: s.deadline_exceeded,
        }
    }
}

/// One client connection.
pub struct Conn(Client);

/// A decode reply: the trit text and the rung that produced it.
pub struct Reply {
    pub trits: String,
    pub rung: &'static str,
    pub lossless: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn> {
        Client::connect(addr).map(Conn).map_err(text)
    }

    pub fn compress(&mut self, k: u16, trits: &str) -> Result<Vec<u8>> {
        self.0.compress(k, trits).map_err(text)
    }

    pub fn decode(&mut self, frame: &[u8], policy: Policy) -> Result<Reply> {
        self.0.decode(frame, policy).map(Reply::of).map_err(text)
    }

    pub fn repair(&mut self, frame: &[u8]) -> Result<Reply> {
        self.0.repair(frame).map(Reply::of).map_err(text)
    }

    pub fn range(&mut self, frame: u32, start: u64, len: u64) -> Result<String> {
        self.0.archive_range(frame, start, len).map_err(text)
    }
}

impl Reply {
    fn of(reply: ninec_serve::DecodeReply) -> Reply {
        Reply {
            trits: reply.trits,
            rung: reply.rung.label(),
            lossless: !reply.partial,
        }
    }
}
