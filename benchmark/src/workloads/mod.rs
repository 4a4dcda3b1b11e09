//! The five workloads and what they share: run options, the output
//! check tally, timed set-up, the 64 KiB reader and the core-layer probes
//! of the traced run.

mod archive;
mod bulk;
mod segments;
mod serve;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::api::{self, Codec, Decoded, Policy};
use crate::trace::Tracer;
use ninec_testdata::trit::{Trit, TritVec};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "bulk_sparse_k8",
    "bulk_dense_k32",
    "small_segments_v3",
    "archive_rw",
    "serve_open_loop",
];

/// The end-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("stored_bits_per_trit", "bits/trit"),
    ("write_mbit_s", "Mbit/s"),
    ("read_mbit_s", "Mbit/s"),
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 11] = [
    ("core.encode.ns_per_mbit", "ns/Mbit"),
    ("core.encode.raw_half_pct", "%"),
    ("core.encode.bits_per_trit", "bits/trit"),
    ("core.decode.ns_per_mbit", "ns/Mbit"),
    ("core.engine.frame.crc_ns_per_mib", "ns/MiB"),
    ("core.engine.plan.ns_per_segment", "ns"),
    ("core.engine.exec.ns_per_mbit", "ns/Mbit"),
    ("core.engine.exec.worker_busy_pct", "%"),
    ("core.engine.reader.ns_per_mbit", "ns/Mbit"),
    ("core.engine.reader.peak_buffered_kib", "KiB"),
    ("core.engine.reader.read_calls_per_mib", "1/MiB"),
];

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// The traced run: per-layer numbers instead of end-to-end ones.
    pub trace: bool,
    /// Test-sized inputs (the smoke test).
    pub tiny: bool,
    /// Corrupt one expected output after set-up, so the checks must fail
    /// (the smoke test's proof that they can).
    pub corrupt: bool,
    /// Where archives and trace files go.
    pub out_dir: PathBuf,
}

/// A reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload run produced.
pub struct Run {
    /// The end-to-end metrics (untraced run) or per-layer metrics
    /// (traced run), exactly the names `BENCHMARK.json` lists.
    pub metrics: Vec<Metric>,
    /// Everything else the run measured, printed but not compared.
    pub extras: Vec<Metric>,
    pub check: Checker,
    /// Digest of every generated input.
    pub input_digest: u64,
    pub tracer: Tracer,
}

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Checker {
    /// Failures described in full; the rest are only counted.
    const KEPT: usize = 8;

    /// Counts one operation whose output was checked.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < Self::KEPT {
                self.first_failures.push(what());
            }
        }
    }

    /// Counts one operation that returned `result`; a failed call is a
    /// failed operation. Returns the value for the output check.
    pub fn call<T>(&mut self, what: &str, result: api::Result<T>) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.op(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Adds another thread's tally to this one.
    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failures.extend(other.first_failures);
        self.first_failures.truncate(Self::KEPT);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 5;

/// Builds the workload state `SETUPS` times and keeps the last; returns
/// it with the median build time in seconds. Each earlier state is
/// dropped before the next build starts.
pub fn set_up<S>(mut build: impl FnMut() -> api::Result<S>) -> api::Result<(S, f64)> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(build()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let state = state.ok_or("no set-up ran")?;
    Ok((state, crate::stats::median(&secs)))
}

/// Runs one workload.
pub fn run(name: &str, opts: &Opts) -> api::Result<Run> {
    match name {
        "bulk_sparse_k8" => bulk::run(bulk::Spec::sparse(opts.tiny), opts),
        "bulk_dense_k32" => bulk::run(bulk::Spec::dense(opts.tiny), opts),
        "small_segments_v3" => segments::run(opts),
        "archive_rw" => archive::run(opts),
        "serve_open_loop" => serve::run(opts),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            NAMES.join(", ")
        )),
    }
}

/// A fresh directory under the run's output directory for archive
/// files, removed when dropped however the run ends.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(opts: &Opts, prefix: &str) -> api::Result<ScratchDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = opts
            .out_dir
            .join(format!("{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Source megabits.
pub fn mbit(trits: usize) -> f64 {
    trits as f64 / 1e6
}

/// `true` when `decoded` keeps every care bit of `src` (X may decode to
/// anything). Word-parallel, so checking a 16 M-trit output is cheap.
pub fn covers(decoded: &TritVec, src: &TritVec, at: usize) -> bool {
    if at + src.len() > decoded.len() {
        return false;
    }
    let (d, s) = (decoded.as_slice(), src.as_slice());
    let mut i = 0;
    while i < s.len() {
        let n = (s.len() - i).min(64);
        let care = s.care_word(i, n);
        let (dc, dv) = (d.care_word(at + i, n), d.value_word(at + i, n));
        if care & !dc != 0 || care & (s.value_word(i, n) ^ dv) != 0 {
            return false;
        }
        i += n;
    }
    true
}

/// Flips trit `i` (X becomes 0) — the smoke test's corruption.
pub fn flip(t: &mut TritVec, i: usize) {
    if let Some(v) = t.get(i) {
        t.set(
            i,
            if v == Trit::Zero {
                Trit::One
            } else {
                Trit::Zero
            },
        );
    }
}

/// A reader that hands out at most 64 KiB per `read`, as a pipe or
/// socket would, and counts its calls.
pub struct ChunkReader<'a> {
    bytes: &'a [u8],
    pub calls: u64,
}

impl<'a> ChunkReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        ChunkReader { bytes, calls: 0 }
    }
}

impl Read for ChunkReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        let n = buf.len().min(self.bytes.len()).min(64 * 1024);
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Sizes and tallies behind the per-layer metrics; times come from the
/// tracer's spans.
#[derive(Debug, Default)]
pub struct Layers {
    encode_trits: u64,
    raw_halves: u64,
    halves: u64,
    encoded_bits: u64,
    decode_trits: u64,
    crc_bytes: u64,
    plan_segments: u64,
    exec_trits: u64,
    threads: usize,
    reader_trits: u64,
    reader_bytes: u64,
    read_calls: u64,
    peak_buffered: usize,
    decodes: u64,
    counters: api::EngineCounters,
    /// Time in strict attempts that failed before the ladder advanced.
    wasted_strict_ns: u64,
}

impl Layers {
    /// The traced form of `DecodeSession::decode_frame`: the plan, the
    /// strict rung, then `policy`'s rung if strict failed — the sequence
    /// the library runs inside `decode_frame`, one span per call.
    pub fn decode(
        &mut self,
        tr: &mut Tracer,
        codec: &Codec,
        bytes: &[u8],
        policy: Policy,
    ) -> api::Result<Decoded> {
        let before = api::EngineCounters::now();
        let out = tr.span("core.engine.decode_frame", |tr| {
            let plan = tr.span("core.engine.plan", |_| codec.plan(bytes))?;
            self.plan_segments += plan.segments() as u64;
            let t = Instant::now();
            match tr.span("core.engine.exec.strict", |_| {
                codec.execute(&plan, Policy::Strict)
            }) {
                Err(e) if policy == Policy::Strict => Err(e),
                Err(_) => {
                    self.wasted_strict_ns += t.elapsed().as_nanos() as u64;
                    tr.span("core.engine.exec.repair", |_| codec.execute(&plan, policy))
                }
                ok => ok,
            }
        });
        self.counters += api::EngineCounters::now().since(before);
        self.threads = codec.threads();
        self.decodes += 1;
        if let Ok(d) = &out {
            self.exec_trits += d.trits.len() as u64;
        }
        out
    }

    /// The sibling probes on one input and its clean frame: the unframed
    /// encode and decode, the frame checksum and the streaming decode.
    /// Outputs are checked against `src` and the clean decode `expected`.
    pub fn probe(
        &mut self,
        tr: &mut Tracer,
        check: &mut Checker,
        codec: &Codec,
        src: &TritVec,
        frame: &[u8],
        expected: &TritVec,
    ) {
        let encoded = tr.span("core.encode", |_| codec.encode(src));
        if let Some(encoded) = check.call("encode", encoded) {
            self.encode_trits += src.len() as u64;
            self.encoded_bits += encoded.encoded_bits() as u64;
            let (raw, halves) = encoded.raw_halves();
            self.raw_halves += raw;
            self.halves += halves;
            let back = tr.span("core.decode", |_| codec.decode_encoded(&encoded));
            if let Some(back) = check.call("decode", back) {
                self.decode_trits += back.len() as u64;
                check.op(back.len() == src.len() && covers(&back, src, 0), || {
                    "unframed decode lost care bits".into()
                });
            }
        }
        let crc = tr.span("core.engine.frame.crc32", |_| api::crc32(frame));
        self.crc_bytes += frame.len() as u64;
        std::hint::black_box(crc);
        let mut reader = ChunkReader::new(frame);
        let streamed = tr.span("core.engine.reader", |_| codec.decode_stream(&mut reader));
        if let Some((trits, peak)) = check.call("stream decode", streamed) {
            self.reader_trits += trits.len() as u64;
            self.reader_bytes += frame.len() as u64;
            self.read_calls += reader.calls;
            self.peak_buffered = self.peak_buffered.max(peak);
            check.op(&trits == expected, || "stream decode differs".into());
        }
    }

    /// The per-layer metrics, in `PER_LAYER` order, plus extras.
    pub fn metrics(&self, tr: &Tracer) -> (Vec<Metric>, Vec<Metric>) {
        let ns = |name: &str| tr.total(name).0 as f64;
        // Nothing to divide by means nothing was measured: NaN, which
        // the report refuses, never a silent zero.
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::NAN };
        let exec_ns = ns("core.engine.exec.strict") + ns("core.engine.exec.repair");
        let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        let values = [
            per(ns("core.encode"), mbit(self.encode_trits as usize)),
            per(self.raw_halves as f64 * 100.0, self.halves as f64),
            per(self.encoded_bits as f64, self.encode_trits as f64),
            per(ns("core.decode"), mbit(self.decode_trits as usize)),
            per(ns("core.engine.frame.crc32"), mib(self.crc_bytes)),
            per(ns("core.engine.plan"), self.plan_segments as f64),
            per(exec_ns, mbit(self.exec_trits as usize)),
            per(
                self.counters.worker_busy_ns as f64 * 100.0,
                exec_ns * self.threads as f64,
            ),
            per(ns("core.engine.reader"), mbit(self.reader_trits as usize)),
            self.peak_buffered as f64 / 1024.0,
            per(self.read_calls as f64, mib(self.reader_bytes)),
        ];
        let layers = PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| metric(name, v, unit))
            .collect();
        let decode_ns = ns("core.engine.decode_frame");
        let decodes = self.decodes as f64;
        let extras = vec![
            metric(
                "core.engine.plan.scan_passes_per_decode",
                per(self.counters.scan_passes as f64, decodes),
                "count",
            ),
            metric(
                "core.engine.exec.jobs_per_decode",
                per(self.plan_segments as f64, decodes),
                "count",
            ),
            metric(
                "core.engine.exec.steals_per_decode",
                per(self.counters.steals as f64, decodes),
                "count",
            ),
            metric(
                "core.engine.ecc.repair_failures_per_decode",
                per(self.counters.repair_failures as f64, decodes),
                "count",
            ),
            metric(
                "core.engine.salvage.wasted_strict_pct",
                per(self.wasted_strict_ns as f64 * 100.0, decode_ns),
                "%",
            ),
            metric(
                "bench.decode_span_coverage_min_pct",
                tr.min_child_coverage_pct("core.engine.decode_frame"),
                "%",
            ),
        ];
        (layers, extras)
    }
}

/// Metrics in `END_TO_END` order from `(name, value)` pairs, so a
/// workload cannot report a name the benchmark does not define.
pub fn end_to_end(values: [(&str, f64); 5]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (given, v))| {
            assert_eq!(name, given, "end-to-end metrics out of order");
            metric(name, v, unit)
        })
        .collect()
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The quantile of an operation's times that the bounded throughput
/// metrics use. Noise on a shared host only ever adds time, so the fast
/// tail estimates the uncontended cost far more steadily than the median
/// does (in one ten-run set on a shared two-CPU host, spreads of 2–7%
/// against the medians' 7–22%).
pub const FAST_QUANTILE: f64 = 0.10;

/// Source Mbit/s of one `trits`-trit operation at the `FAST_QUANTILE`
/// of its times.
pub fn fast_rate(trits: usize, secs: &[f64]) -> f64 {
    mbit(trits) / crate::stats::quantile(secs, FAST_QUANTILE)
}

/// A latency summary in microseconds: the fast quantile, the median, the
/// highest percentile with at least ten samples beyond it, and the
/// sample count.
pub fn latency(prefix: &str, secs: &[f64]) -> Vec<Metric> {
    let us: Vec<f64> = secs.iter().map(|s| s * 1e6).collect();
    let mut out = vec![
        metric(
            format!("{prefix}.p10_us"),
            crate::stats::quantile(&us, FAST_QUANTILE),
            "us",
        ),
        metric(format!("{prefix}.p50_us"), crate::stats::median(&us), "us"),
    ];
    let (pct, tail) = crate::stats::tail(&us);
    if pct > 50.0 {
        out.push(metric(format!("{prefix}.p{pct}_us"), tail, "us"));
    }
    out.push(metric(
        format!("{prefix}.samples"),
        us.len() as f64,
        "count",
    ));
    out
}
