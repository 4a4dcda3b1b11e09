//! Library backing the `ninec` command-line tool.
//!
//! Subcommands (see [`run`]):
//!
//! - `compress <in.cubes> -o <out.te>` — 9C-compress a cube file;
//! - `decompress <in.te> -o <out.cubes>` — expand back to scan data;
//! - `info <file>` — statistics of a cube or `.te` file;
//! - `generate <profile> -o <out.cubes>` — synthetic benchmark test sets;
//! - `atpg <netlist.bench> -o <out.cubes>` — run PODEM on a netlist;
//! - `compare <in.cubes>` — CR of 9C and every baseline code side by side;
//! - `rtl -o <decoder.v> [--tb]` — emit the synthesizable decoder, and
//!   optionally a self-checking testbench generated from the reference
//!   model.
//!
//! All commands are pure functions of their arguments plus the named
//! files, so the test suite drives [`run`] directly.

#![warn(missing_docs)]

pub mod format;

use format::TeFile;
use ninec::encode::Encoder;
use ninec::engine::{
    frame, Archive, ArchiveError, Engine, PlanEntry, Policy, ScrubMode, ScrubVerdict, SegmentRung,
};
use ninec::freqdir::encode_frequency_directed;
use ninec::session::DecodeSession;
use ninec_atpg::generate::{generate_tests, AtpgConfig};
use ninec_circuit::bench::parse_bench;
use ninec_decompressor::verilog::decoder_verilog;
use ninec_obs::{catalogue, EventKind};
use ninec_testdata::cube::TestSet;
use ninec_testdata::fill::{fill_trits, FillStrategy};
use ninec_testdata::gen::{mintest_profile, SyntheticProfile};
use ninec_testdata::stats::TestSetStats;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::LazyLock;

/// CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Underlying operation failed.
    Failed(String),
    /// I/O failure.
    Io(std::io::Error),
    /// `decompress --salvage` recovered *some* but not all segments: the
    /// output file was written (damaged spans as `X` or their fill), and
    /// the message carries the damage map.
    PartialRecovery(String),
    /// A `client` request was refused by the codec service. The wire
    /// status byte doubles as the exit code: the serve statuses mirror
    /// the local contract (2/3/4/5), plus 6 busy / 7 rate-limited.
    Service {
        /// Wire status byte, reported verbatim as the exit code.
        code: u8,
        /// The server's error text (suffixed when it was degraded).
        message: String,
    },
}

impl CliError {
    /// Process exit code for this error class.
    ///
    /// Scripts can distinguish a bad invocation (2) from an operation
    /// that failed on valid arguments (3), an I/O problem (4), and a
    /// salvage decompress that wrote output but lost segments (5).
    /// Server refusals over the wire ([`CliError::Service`]) carry
    /// their status byte straight through — the serve protocol reuses
    /// this contract and extends it with 6 (busy) and 7 (rate-limited).
    /// The whole mapping is documented once, in [`EXIT_CODES`].
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 3,
            CliError::Io(_) => 4,
            CliError::PartialRecovery(_) => 5,
            // A wire status of 0 never reaches the error path; guard it
            // anyway so a confused server cannot make a failure exit 0.
            CliError::Service { code: 0, .. } => 3,
            CliError::Service { code, .. } => *code,
        }
    }

    /// Full structured report: the `ninec:`-prefixed headline plus one
    /// `  caused by:` line per link of the [`std::error::Error::source`]
    /// chain. This is what `main` prints to stderr.
    pub fn report(&self) -> String {
        use std::error::Error as _;
        let mut s = format!("ninec: {self}");
        let mut cause = self.source();
        while let Some(e) = cause {
            s.push_str(&format!("\n  caused by: {e}"));
            cause = e.source();
        }
        s
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{}", USAGE.as_str()),
            CliError::Failed(msg) => write!(f, "{msg}"),
            CliError::Io(_) => write!(f, "i/o error"),
            CliError::PartialRecovery(msg) => write!(f, "partial recovery: {msg}"),
            CliError::Service { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Usage(_)
            | CliError::Failed(_)
            | CliError::PartialRecovery(_)
            | CliError::Service { .. } => None,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// The exit-code contract, verbatim as `--help` prints it and the
/// README quotes it. One source: the help text is assembled from this
/// constant, and the doc-drift tests assert the README block and
/// [`CliError::exit_code`] agree with it character for character.
/// Codes 6–8 exist only on the `client` path — they are the serve
/// protocol's load-shedding refusals and its typed timeout, carried
/// through verbatim.
pub const EXIT_CODES: &str = "\
EXIT CODES:
    0   success — including damage fully repaired by parity or by scrub
    2   usage error (bad flags, arguments, or not a 9CSF/9CA container)
    3   operation failed on valid arguments (corrupt input, no output)
    4   i/o error
    5   partial recovery: --salvage wrote output but segments were lost,
        or scrub found damage beyond the parity budget
    6   server busy: the admission window or handler queue refused (client)
    7   tenant over its request-rate budget (client)
    8   deadline exceeded: the server cancelled the decode in time (client)
";

/// Usage text, assembled once on first use; the exit-code block is
/// [`EXIT_CODES`] verbatim.
pub static USAGE: LazyLock<String> = LazyLock::new(|| {
    format!(
        "\
ninec — nine-coded scan test-data compression (DATE 2004)

USAGE:
    ninec compress   <in.cubes> -o <out.te|out.9cf> [-k <even>=8]
                     [--fill zero|one|random|mt|keep] [--seed <n>] [--freq-directed]
                     [--threads <n>] [--segment-bits <n>] [--parity <g>:<r>]
                     [--verify]
    ninec decompress <in.te|in.9cf|-> -o <out.cubes> [--fill zero|one|random|mt|keep]
                     [--seed <n>] [--threads <n>] [--salvage] [--no-repair]
    ninec info       <file.cubes|file.te|file.9cf|file.9ca>
    ninec archive    <in.9cf>... -o <out.9ca> [--verify] [--threads <n>]
                     [--parity <g>:<r>] [--segment-bits <n>]
    ninec extract    <in.9ca> -o <out> [--frame <i>] [--range <start>:<len>]
                     [--verify]
    ninec scrub      <in.9ca> [--check]
    ninec generate   <s5378|s9234|s13207|s15850|s38417|s38584|custom:P,L,X%>
                     -o <out.cubes> [--seed <n>]
    ninec atpg       <netlist.bench> -o <out.cubes>
    ninec compare    <in.cubes> [-k <even>=8]
    ninec rtl        -o <decoder.v> [-k <even>=8] [--tb]
    ninec trace      <in.9cf> [--threads <n>] [--no-repair] [--json]
    ninec serve      [--addr <ip:port>] [--http-addr <ip:port>] [--no-http]
                     [--tenants <file>] [--handler-threads <n>] [--threads <n>]
                     [--max-inflight <n>] [--degrade-threshold <n>]
                     [--segment-bits <n>] [--parity <g>:<r>]
                     [--max-request-time-ms <n>] [--archive <file.9ca>]
    ninec client     <addr> ping|compress|decompress|info|range|metrics [<file>]
                     [-o <out>] [-k <even>=8] [--tenant <name>]
                     [--salvage] [--no-repair]
                     [--retries <n>] [--deadline-ms <n>]
                     [--frame <i>] [--range <start>:<len>]
    ninec chaos-proxy <upstream-addr> [--addr <ip:port>] [--delay-ms <n>]
                     [--throttle-bps <n>] [--torn-permille <n>]
                     [--blackhole-permille <n>] [--seed <n>]

PARALLEL ENGINE:
    --threads <n>       worker threads for the sharded codec engine
                        (default: NINEC_THREADS, else the machine's
                        available parallelism); output is byte-identical
                        at every thread count
    --segment-bits <n>  target segment size in source bits for the `9CSF`
                        frame container (default 1048576)
    An output path ending in `.9cf` selects the binary segment-frame
    container (parallel decode); anything else writes the textual `.te`
    format. `.9cf` frames always keep leftover don't-cares — bind them at
    decompress time with `--fill`. `decompress` sniffs the input format,
    and reads the frame from stdin when the input is `-` (bounded-memory
    streaming decode, so `cat big.9cf | ninec decompress -` works from a
    pipe).

REPAIR AND SALVAGE (binary `.9cf` frames):
    --parity <g>:<r>    protect every interleaved group of <g> data
                        segments with <r> GF(256) Reed-Solomon parity
                        segments (a v3 frame; up to <r> lost or corrupted
                        segments per group are rebuilt bit-exact at
                        decompress time). `--parity 1:1` duplicates every
                        segment; `0:0` (default) writes a plain v2 frame.
    `decompress` climbs a three-stage ladder: strict decode first; on
    damage it rebuilds what the parity budget covers (repair); whatever
    repair cannot rebuild is salvaged as don't-care spans when --salvage
    is given.
    --no-repair         skip the repair stage (strict, or strict-then-
                        salvage with --salvage)
    --salvage           keep going past unrepairable damage: CRC-valid
                        segments are recovered, damaged spans come back as
                        don't-cares (then `--fill` applies), and the damage
                        map goes to stderr.
    `info` on a `.9cf` frame prints the parity geometry and the
    per-segment decode plan — what each ladder rung will do with every
    slot, including the damage map — instead of failing on the first
    bad segment.
    `trace` replays a frame through the audited ladder and prints the
    per-frame audit trail: one line per segment naming the rung it
    resolved on (strict/repaired/salvaged), the worker that decoded it
    and the decode wall-clock (--json for a machine-readable document).
    Exit code 5 when segments were lost, like a --salvage decompress.

ARCHIVE & SCRUB (`.9ca` containers):
    `archive` appends `.9cf` frames to a durable `9CA` archive: segment
    blobs are content-addressed and deduplicated across frames, and
    every append commits a new CRC-protected index epoch by atomic
    rename — a crash at any byte leaves the previous epoch readable.
    `extract` reassembles a frame byte-exactly (--frame <i>, default 0),
    or decodes just a trit range via the seek index with
    --range <start>:<len> (O(segments touched), not O(archive)).
    `scrub` walks every stored blob's CRC and parity group: by default
    it rebuilds rotted blobs from parity and rewrites them in place
    under the same atomic-epoch discipline (exit 0 with a report);
    --check only reports. Damage beyond the parity budget exits 5.
    --verify re-reads what was just written (compress: re-decode the
    frame and compare bit-exactly; archive/extract: re-extract and
    re-decode) before exiting 0.

DECODE LIMITS (hostile inputs):
    --max-segments <n>  reject frames/archives claiming more segments
    --max-total-alloc <n>  cap total decode-buffer bytes
    Violations are typed failures (exit 3), never allocations.

SERVING:
    `serve` runs a multi-tenant codec service speaking a length-prefixed
    TCP protocol (compress / decode / info / repair) and prints the
    bound addresses on startup — bind port 0 for an ephemeral port.
    Per-tenant decode budgets and request rates come from the --tenants
    file: `[tenant.NAME]` sections with max_segments, max_segment_trits,
    max_total_alloc, max_resync_probes, rate (requests/s) and burst.
    Load is never buffered unbounded: past --max-inflight concurrent
    requests the server answers busy (exit 6 at the client); past
    --degrade-threshold it sheds repair/salvage work to strict-only and
    flags every answer degraded. --no-http disables the /metrics
    (Prometheus text) and /trace (Chrome trace JSON) exporter listener.
    `client` drives a running server: `ping` greets a tenant (--tenant),
    `compress <in.cubes> -o <out.9cf>` round-trips a cube file into a
    frame, `decompress <in.9cf> -o <out>` recovers the trit stream
    (--no-repair / --salvage pick the decode policy, like the local
    verb), `info <in.9cf>` prints the server's frame summary, `metrics`
    fetches the exporter text from the http address. Server refusals
    exit with the matching code below.

DEADLINES, RETRIES AND CHAOS:
    Requests are time-bounded from both sides. On the server,
    --max-request-time-ms caps any single decode (default 60000; 0
    disables): work past the cap is cancelled at the next segment
    boundary and answered with the deadline status (exit 8 at the
    client). On the client, --deadline-ms negotiates the wire's deadline
    capability at HELLO and sends that budget with every request; the
    effective deadline is the smaller of the two. --retries <n> retries
    transport errors, busy/rate-limit refusals and deadline timeouts
    with decorrelated-jitter backoff, reconnecting as needed — decode
    failures never retry. `chaos-proxy` runs the fault-injection TCP
    proxy from the test harness in front of <upstream-addr> (per-mille
    rates for torn writes and blackholed connections, plus fixed delay
    and byte-rate throttling) and prints its bound address; point
    `client` at it to rehearse failure handling end to end.

{EXIT_CODES}
GLOBAL FLAGS (any command):
    --stats text|json|prom
                        after the command succeeds, print the telemetry
                        registry (counters, gauges, histograms) in
                        Prometheus text exposition format (text or prom)
                        or as a JSON document
    --trace-spans       also print the command's spans from the flight
                        recorder: its own span and every span under it
                        (worker jobs included), one line each with its
                        nanoseconds, indented by nesting depth; only
                        spans the recorder still holds are listed
    --trace <file>      write the flight-recorder event trace to <file>
                        after the command (even when it fails): Chrome
                        trace-event JSON loadable in chrome://tracing or
                        Perfetto, or compact JSON-lines when <file> ends
                        in .jsonl
"
    )
});

/// Runs the CLI with `args` (without the program name), writing normal
/// output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments or failing operations.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (args, global) = extract_global_opts(args)?;
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| CliError::Usage("no command".into()))?;
    let rest: Vec<String> = it.cloned().collect();
    let span = catalogue::CLI_COMMAND_SPANS
        .iter()
        .find(|(word, _)| word == command)
        .map_or(catalogue::SPAN_CLI, |&(_, span)| span);
    let (result, root) = {
        // One span per invocation: `--trace-spans` lists it with the
        // library spans (encode_chunked, job, ...) recorded under it.
        let _span = span.start();
        let root = ninec_obs::trace_context().1;
        let result = match command.as_str() {
            "compress" => compress(&rest, out),
            "decompress" => decompress(&rest, out),
            "info" => info(&rest, out),
            "archive" => archive_cmd(&rest, out),
            "extract" => extract_cmd(&rest, out),
            "scrub" => scrub_cmd(&rest, out),
            "generate" => generate(&rest, out),
            "atpg" => atpg(&rest, out),
            "compare" => compare(&rest, out),
            "rtl" => rtl(&rest, out),
            "trace" => trace_cmd(&rest, out),
            "serve" => serve(&rest, out),
            "client" => client(&rest, out),
            "chaos-proxy" => chaos_proxy(&rest, out),
            "help" | "--help" | "-h" => {
                writeln!(out, "{}", USAGE.as_str())?;
                Ok(())
            }
            other => Err(CliError::Usage(format!("unknown command {other:?}"))),
        };
        (result, root)
    };
    let mut drained = None;
    if let Some(path) = &global.trace {
        // Drain the flight recorder to the file even when the command
        // failed — a failing decode is exactly when the timeline matters.
        let events = ninec_obs::take_trace();
        let doc = if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
            ninec_obs::render_jsonl(&events)
        } else {
            ninec_obs::render_chrome_trace(&events)
        };
        let wrote = fs::write(path, doc);
        if let (true, Err(e)) = (result.is_ok(), wrote) {
            return Err(CliError::Io(e));
        }
        drained = Some(events);
    }
    result?;
    if global.trace_spans {
        // A snapshot, not a drain: a drain would take other threads'
        // events, such as a concurrent command's worker spans.
        let events = drained.unwrap_or_else(ninec_obs::snapshot_trace);
        let spans = span_listing(&events, root);
        writeln!(out, "# spans ({} events)", spans.len())?;
        for (nanos, depth, name) in spans {
            writeln!(out, "{nanos:>12} ns  {}{name}", "  ".repeat(depth))?;
        }
    }
    match global.stats {
        None => {}
        Some(StatsFormat::Text | StatsFormat::Prom) => {
            write!(out, "{}", ninec_obs::snapshot().render_prometheus())?;
        }
        Some(StatsFormat::Json) => writeln!(out, "{}", ninec_obs::snapshot().render_json())?,
    }
    Ok(())
}

/// The `--trace-spans` listing: recorder span `root` and every span
/// under it whose start and end `events` hold, in start order, as
/// `(nanoseconds, depth, name)`. Depth counts the parent links down
/// from `root`; `root` is `0` when the recorder did not take it.
fn span_listing(events: &[ninec_obs::TraceEvent], root: u64) -> Vec<(u64, usize, &'static str)> {
    if root == 0 {
        return Vec::new();
    }
    // Depth by span id. Seeded with the root, so its children still
    // list if the ring evicted the root's own start.
    let mut depth = HashMap::from([(root, 0usize)]);
    // Per listed span: start stamp, duration once ended, depth, name.
    let mut spans: Vec<(u64, Option<u64>, usize, &'static str)> = Vec::new();
    let mut open = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::SpanStart => {
                let d = if ev.span == root {
                    0
                } else if let Some(&d) = depth.get(&ev.parent) {
                    d + 1
                } else {
                    continue;
                };
                depth.insert(ev.span, d);
                open.insert(ev.span, spans.len());
                spans.push((ev.nanos, None, d, ev.name));
            }
            EventKind::SpanEnd => {
                if let Some(i) = open.remove(&ev.span) {
                    spans[i].1 = Some(ev.nanos.saturating_sub(spans[i].0));
                }
            }
            EventKind::Instant => {}
        }
    }
    spans
        .into_iter()
        .filter_map(|(_, nanos, d, name)| Some((nanos?, d, name)))
        .collect()
}

/// Output format for `--stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsFormat {
    Text,
    Json,
    Prom,
}

/// Global flags that apply to every command.
#[derive(Debug, Default)]
struct GlobalOpts {
    stats: Option<StatsFormat>,
    trace_spans: bool,
    trace: Option<PathBuf>,
}

/// Strips `--stats <fmt>`, `--trace-spans` and `--trace <file>` out of
/// `args` (they may appear anywhere on the line) and returns the
/// remaining arguments.
fn extract_global_opts(args: &[String]) -> Result<(Vec<String>, GlobalOpts), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut global = GlobalOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stats" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--stats needs text|json|prom".into()))?;
                global.stats = Some(match v.as_str() {
                    "text" => StatsFormat::Text,
                    "json" => StatsFormat::Json,
                    "prom" => StatsFormat::Prom,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--stats wants text, json or prom, got {other:?}"
                        )))
                    }
                });
            }
            "--trace-spans" => global.trace_spans = true,
            "--trace" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--trace needs a file path".into()))?;
                global.trace = Some(PathBuf::from(v));
            }
            _ => rest.push(a.clone()),
        }
    }
    Ok((rest, global))
}

/// Parsed common options.
#[derive(Debug, Default)]
struct Opts {
    positional: Vec<String>,
    output: Option<PathBuf>,
    k: Option<usize>,
    fill: Option<String>,
    seed: u64,
    freq_directed: bool,
    testbench: bool,
    threads: Option<usize>,
    segment_bits: Option<usize>,
    salvage: bool,
    no_repair: bool,
    json: bool,
    parity: Option<(u8, u8)>,
    // `archive` / `extract` / `scrub` flags.
    verify: bool,
    check: bool,
    frame: Option<usize>,
    range: Option<(usize, usize)>,
    archive: Option<String>,
    // Decode-limit knobs (any decoding command).
    max_segments: Option<usize>,
    max_total_alloc: Option<usize>,
    // `serve` / `client` flags.
    addr: Option<String>,
    http_addr: Option<String>,
    no_http: bool,
    tenants: Option<PathBuf>,
    handler_threads: Option<usize>,
    max_inflight: Option<usize>,
    degrade_threshold: Option<usize>,
    tenant: Option<String>,
    max_request_time_ms: Option<u64>,
    deadline_ms: Option<u64>,
    retries: Option<u32>,
    // `chaos-proxy` flags.
    delay_ms: Option<u64>,
    throttle_bps: Option<usize>,
    torn_permille: Option<u16>,
    blackhole_permille: Option<u16>,
}

/// The command line as `parse_opts` walks it, with readers for the value
/// that follows a value flag.
struct Values<'a>(std::slice::Iter<'a, String>);

impl<'a> Values<'a> {
    /// The next argument, the value of `flag`; without one, `{flag} needs
    /// {what}`.
    fn text(&mut self, flag: &str, what: &str) -> Result<&'a str, CliError> {
        self.0
            .next()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs {what}")))
    }

    /// The value of `flag` parsed as `T`, or `bad {flag} {value:?}`.
    fn parse<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, CliError> {
        let v = self.text(flag, what)?;
        v.parse()
            .map_err(|_| CliError::Usage(format!("bad {flag} {v:?}")))
    }

    /// A [`parse`](Values::parse)d count that must be at least 1.
    fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, CliError> {
        let n = self.parse(flag, "a value")?;
        if n == T::default() {
            return Err(CliError::Usage(format!("{flag} must be >= 1")));
        }
        Ok(n)
    }

    /// A per-mille rate, `0..=1000`.
    fn permille(&mut self, flag: &str) -> Result<u16, CliError> {
        let n = self.parse(flag, "0..=1000")?;
        if n > 1000 {
            return Err(CliError::Usage(format!("{flag} is out of 1000")));
        }
        Ok(n)
    }

    /// A `<a>:<b>` value of `flag` (`shape` names it), each half parsed;
    /// `halves` names the halves in their errors.
    fn pair<A: FromStr, B: FromStr>(
        &mut self,
        flag: &str,
        shape: &str,
        halves: [&str; 2],
    ) -> Result<(A, B), CliError> {
        let v = self.text(flag, shape)?;
        let (a, b) = v
            .split_once(':')
            .ok_or_else(|| CliError::Usage(format!("{flag} wants {shape}, got {v:?}")))?;
        let a = a
            .parse()
            .map_err(|_| CliError::Usage(format!("bad {flag} {} {a:?}", halves[0])))?;
        let b = b
            .parse()
            .map_err(|_| CliError::Usage(format!("bad {flag} {} {b:?}", halves[1])))?;
        Ok((a, b))
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, CliError> {
    let mut opts = Opts {
        seed: 1,
        ..Default::default()
    };
    let mut it = Values(args.iter());
    while let Some(a) = it.0.next() {
        let flag = a.as_str();
        match flag {
            "-o" | "--output" => opts.output = Some(PathBuf::from(it.text("-o", "a path")?)),
            "-k" => opts.k = Some(it.parse(flag, "a value")?),
            "--fill" => opts.fill = Some(it.text(flag, "a value")?.to_owned()),
            "--seed" => opts.seed = it.parse(flag, "a value")?,
            "--threads" => opts.threads = Some(it.positive(flag)?),
            "--segment-bits" => opts.segment_bits = Some(it.positive(flag)?),
            "--parity" => {
                let (g, r): (u8, u8) = it.pair(flag, "<g>:<r>", ["group size", "shard count"])?;
                if r > 0 && g == 0 {
                    return Err(CliError::Usage(
                        "--parity group size must be >= 1 when parity is on".into(),
                    ));
                }
                if g as usize + r as usize > 255 {
                    return Err(CliError::Usage(format!(
                        "--parity {g}:{r} exceeds the GF(256) shard budget (g + r <= 255)"
                    )));
                }
                opts.parity = Some((g, r));
            }
            "--addr" => opts.addr = Some(it.text(flag, "<ip:port>")?.to_owned()),
            "--http-addr" => opts.http_addr = Some(it.text(flag, "<ip:port>")?.to_owned()),
            "--no-http" => opts.no_http = true,
            "--tenants" => opts.tenants = Some(PathBuf::from(it.text(flag, "a file path")?)),
            "--handler-threads" => opts.handler_threads = Some(it.positive(flag)?),
            "--max-inflight" => opts.max_inflight = Some(it.parse(flag, "a value")?),
            "--degrade-threshold" => opts.degrade_threshold = Some(it.parse(flag, "a value")?),
            "--tenant" => opts.tenant = Some(it.text(flag, "a name")?.to_owned()),
            "--max-request-time-ms" => {
                opts.max_request_time_ms = Some(it.parse(flag, "a value")?);
            }
            "--deadline-ms" => opts.deadline_ms = Some(it.positive(flag)?),
            "--retries" => opts.retries = Some(it.parse(flag, "a value")?),
            "--delay-ms" => opts.delay_ms = Some(it.parse(flag, "a value")?),
            "--throttle-bps" => opts.throttle_bps = Some(it.parse(flag, "a value")?),
            "--torn-permille" => opts.torn_permille = Some(it.permille(flag)?),
            "--blackhole-permille" => opts.blackhole_permille = Some(it.permille(flag)?),
            "--verify" => opts.verify = true,
            "--check" => opts.check = true,
            "--frame" => opts.frame = Some(it.parse(flag, "an index")?),
            "--range" => opts.range = Some(it.pair(flag, "<start>:<len>", ["start", "length"])?),
            "--archive" => opts.archive = Some(it.text(flag, "a .9ca path")?.to_owned()),
            "--max-segments" => opts.max_segments = Some(it.positive(flag)?),
            "--max-total-alloc" => opts.max_total_alloc = Some(it.positive(flag)?),
            "--freq-directed" => opts.freq_directed = true,
            "--salvage" => opts.salvage = true,
            "--no-repair" => opts.no_repair = true,
            "--json" => opts.json = true,
            "--tb" | "--testbench" => opts.testbench = true,
            // A bare `-` is the stdin pseudo-path, not a flag.
            "-" => opts.positional.push(a.clone()),
            _ if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag {flag:?}")))
            }
            _ => opts.positional.push(a.clone()),
        }
    }
    Ok(opts)
}

/// `keep` leaves X in place; everything else is a concrete fill.
fn fill_strategy(opts: &Opts) -> Result<Option<FillStrategy>, CliError> {
    match opts.fill.as_deref() {
        None | Some("random") => Ok(Some(FillStrategy::Random { seed: opts.seed })),
        Some("zero") => Ok(Some(FillStrategy::Zero)),
        Some("one") => Ok(Some(FillStrategy::One)),
        Some("mt") | Some("min-transition") => Ok(Some(FillStrategy::MinTransition)),
        Some("keep") => Ok(None),
        Some(other) => Err(CliError::Usage(format!("unknown fill {other:?}"))),
    }
}

fn one_input(opts: &Opts) -> Result<&str, CliError> {
    match opts.positional.as_slice() {
        [one] => Ok(one),
        _ => Err(CliError::Usage("expected exactly one input file".into())),
    }
}

fn output(opts: &Opts) -> Result<&PathBuf, CliError> {
    opts.output
        .as_ref()
        .ok_or_else(|| CliError::Usage("missing -o <output>".into()))
}

/// Chunk size (in symbols) for the streaming compress/decompress paths —
/// peak codec state stays `O(STREAM_CHUNK + K)` regardless of input size.
const STREAM_CHUNK: usize = 4096;

/// True when `path` selects the binary `9CSF` segment-frame container.
fn wants_frame(path: &std::path::Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some("9cf")
}

/// Builds the sharded engine from the CLI flags (paper code table).
fn engine_from_opts(opts: &Opts) -> Engine {
    let mut builder = Engine::builder();
    if let Some(threads) = opts.threads {
        builder = builder.threads(threads);
    }
    if let Some(bits) = opts.segment_bits {
        builder = builder.segment_bits(bits);
    }
    if let Some((g, r)) = opts.parity {
        builder = builder.parity(g, r);
    }
    if let Some(limits) = limits_from_opts(opts) {
        builder = builder.limits(limits);
    }
    builder.build()
}

/// Tightened hostile-input ceilings from `--max-segments` /
/// `--max-total-alloc`, or `None` when neither flag was given.
/// Violations surface as typed `LimitExceeded` failures (exit 3),
/// never as allocations.
fn limits_from_opts(opts: &Opts) -> Option<frame::DecodeLimits> {
    if opts.max_segments.is_none() && opts.max_total_alloc.is_none() {
        return None;
    }
    let mut limits = frame::DecodeLimits::default();
    if let Some(n) = opts.max_segments {
        limits.max_segments = n;
    }
    if let Some(n) = opts.max_total_alloc {
        limits.max_total_alloc = n;
    }
    Some(limits)
}

/// The `--verify` guard: re-decodes `frame_bytes` in-process and
/// compares the result against `expect`. Every care trit must survive
/// bit-exact; positions that were X in `expect` may come back bound
/// (the 9C code is free to fill them). Shared by `compress --verify`
/// (expect = the source stream) and the archive verbs (expect = the
/// decode of the frame that went in).
fn verify_frame_bytes(
    engine: &Engine,
    what: &str,
    frame_bytes: &[u8],
    expect: &ninec_testdata::trit::TritVec,
) -> Result<(), CliError> {
    let decoded = engine
        .decode_frame(frame_bytes)
        .map_err(|e| CliError::Failed(format!("{what}: --verify re-decode failed: {e}")))?;
    let matches = decoded.len() == expect.len()
        && (0..expect.len()).all(|i| match expect.get(i) {
            Some(t) if t.is_care() => decoded.get(i) == Some(t),
            _ => decoded.get(i).is_some(),
        });
    if !matches {
        return Err(CliError::Failed(format!(
            "{what}: --verify mismatch: re-decode differs from the expected stream"
        )));
    }
    Ok(())
}

fn compress(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let input = one_input(&opts)?;
    let k = opts.k.unwrap_or(8);
    let cubes = ninec_testdata::io::read_test_set_file(input)
        .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
    let out_path = output(&opts)?;
    if wants_frame(out_path) {
        // Binary segment-frame container: encoded concurrently, decoded
        // in parallel, byte-identical at every thread count. Frames always
        // keep leftover X so the decompressor can bind them later.
        if !matches!(opts.fill.as_deref(), None | Some("keep")) {
            return Err(CliError::Usage(
                "a .9cf frame always keeps leftover X; bind them at \
                 decompress time with --fill"
                    .into(),
            ));
        }
        if opts.freq_directed {
            return Err(CliError::Usage(
                "--freq-directed applies to the .te text format only".into(),
            ));
        }
        let engine = engine_from_opts(&opts);
        let stream = cubes.as_stream();
        let bytes = engine
            .encode_frame(k, stream)
            .map_err(|e| CliError::Failed(e.to_string()))?;
        fs::write(out_path, &bytes)?;
        if opts.verify {
            // The output exists; prove it round-trips before exiting 0.
            verify_frame_bytes(&engine, input, &bytes, stream)?;
        }
        writeln!(
            out,
            "{input}: {} -> {} bits (CR {:.2}%), 9CSF frame, {} threads{}{}",
            cubes.total_bits(),
            bytes.len() * 8,
            (cubes.total_bits() as f64 - (bytes.len() * 8) as f64)
                / cubes.total_bits().max(1) as f64
                * 100.0,
            engine.threads(),
            match engine.parity() {
                Some((g, r)) => format!(", parity {g}:{r}"),
                None => String::new(),
            },
            if opts.verify { ", verified" } else { "" },
        )?;
        return Ok(());
    }
    if opts.verify {
        return Err(CliError::Usage(
            "--verify applies to the binary .9cf frame container only".into(),
        ));
    }
    if opts.parity.is_some() {
        return Err(CliError::Usage(
            "--parity applies to the binary .9cf frame container only".into(),
        ));
    }
    let encoded = if opts.freq_directed {
        encode_frequency_directed(k, cubes.as_stream())
            .map_err(|e| CliError::Failed(e.to_string()))?
            .best()
            .clone()
    } else if opts.threads.is_some() || opts.segment_bits.is_some() {
        // Sharded engine path: bit-identical to the serial encoder.
        engine_from_opts(&opts)
            .encode(k, cubes.as_stream())
            .map_err(|e| CliError::Failed(e.to_string()))?
    } else {
        // Streaming path: the encoder sees the source in fixed chunks and
        // holds at most one partial block between them.
        Encoder::new(k)
            .map_err(|e| CliError::Failed(e.to_string()))?
            .encode_chunked(cubes.as_stream().chunks(STREAM_CHUNK))
    };
    let mut te = TeFile::from_encoded(&encoded, cubes.pattern_len());
    if let Some(strategy) = fill_strategy(&opts)? {
        te.stream = fill_trits(&te.stream, strategy);
    }
    fs::write(out_path, te.to_text())?;
    writeln!(
        out,
        "{input}: {} -> {} bits (CR {:.2}%), leftover X {}{}",
        cubes.total_bits(),
        encoded.compressed_len(),
        encoded.compression_ratio(),
        encoded.stats().leftover_x,
        if opts.freq_directed {
            ", frequency-directed"
        } else {
            ""
        }
    )?;
    Ok(())
}

/// Formats a [`SalvageReport`] damage map for the stderr report.
fn damage_map(input: &str, report: &ninec::engine::SalvageReport) -> String {
    let mut msg = format!(
        "{input}: salvaged {}/{} segments; damaged:",
        report.recovered_segments, report.total_segments,
    );
    for d in &report.damaged {
        msg.push_str(&format!(
            "\n  segment {} bytes {}..{} trits {}..{}: {}",
            d.index,
            d.byte_range.start,
            d.byte_range.end,
            d.trit_range.start,
            d.trit_range.end,
            d.reason,
        ));
    }
    msg
}

fn decompress(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let input = one_input(&opts)?;
    let mut damage: Option<String> = None;
    let mut repaired: usize = 0;
    if input == "-" {
        // Stdin: bounded-memory streaming decode straight off the pipe.
        // Streaming is strict-only — repair needs random access to the
        // whole frame (parity groups interleave across it).
        if opts.salvage {
            return Err(CliError::Usage(
                "--salvage needs the whole frame; pipe it to a file first \
                 or pass a path instead of -"
                    .into(),
            ));
        }
        let engine = engine_from_opts(&opts);
        let stdin = std::io::stdin();
        let decoded = engine.decode_stream(stdin.lock()).map_err(|e| match e {
            ninec::engine::ReadError::Io(io) => CliError::Io(io),
            other => CliError::Failed(format!("<stdin>: {other}")),
        })?;
        return write_decompressed(&opts, out, "<stdin>", decoded, 0, None, 0);
    }
    let bytes = fs::read(input)?;
    let (decoded, te_pattern_len) = if frame::is_frame(&bytes) {
        // Binary 9CSF frame: self-describing (K, table, segment bounds),
        // decoded in parallel by the session's sharded engine. Damaged
        // frames climb the ladder: strict -> repair (unless --no-repair)
        // -> salvage (only kept when --salvage allows lossy output) —
        // every rung executes against ONE plan, built by a single
        // header/CRC scan pass.
        let mut session = DecodeSession::new();
        if let Some(threads) = opts.threads {
            session = session.threads(threads);
        }
        if let Some(limits) = limits_from_opts(&opts) {
            session = session.limits(limits);
        }
        let plan = session
            .plan(&bytes)
            .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
        let decoded = match session.execute_plan(&plan, Policy::Strict) {
            Ok(report) => report.trits,
            Err(strict_err) => {
                let rung = if opts.no_repair {
                    Policy::Salvage
                } else {
                    Policy::Repair
                };
                let report = session
                    .execute_plan(&plan, rung)
                    .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
                repaired = report
                    .damaged
                    .iter()
                    .filter(|d| d.reason.is_repaired())
                    .count();
                if report.is_full_recovery() {
                    // Every damaged segment was rebuilt bit-exact from
                    // parity (or cost no output trits): full recovery,
                    // exit 0.
                    report.trits
                } else if opts.salvage {
                    // Best-effort: keep every CRC-valid or rebuilt
                    // segment, materialize the rest as X (bound below by
                    // --fill like any other leftover X).
                    damage = Some(damage_map(input, &report));
                    report.trits
                } else {
                    return Err(CliError::Failed(format!(
                        "{input}: {strict_err}{}; {}/{} segments are recoverable — \
                         re-run with --salvage to keep them (damaged spans decode as X)",
                        if opts.no_repair {
                            ""
                        } else {
                            " (and parity could not rebuild all damage)"
                        },
                        report.recovered_segments,
                        report.total_segments,
                    )));
                }
            }
        };
        (decoded, 0)
    } else {
        if opts.salvage {
            return Err(CliError::Usage(
                "--salvage applies to binary 9CSF frames only".into(),
            ));
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| CliError::Failed(format!("{input}: not a .te or 9CSF file")))?;
        let te = TeFile::parse(&text).map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
        let decoded = te
            .decode()
            .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
        (decoded, te.pattern_len)
    };
    write_decompressed(&opts, out, input, decoded, te_pattern_len, damage, repaired)
}

/// Shared tail of `decompress`: bind leftover X, shape into patterns,
/// write the cube file and the summary line, and map a lossy salvage to
/// [`CliError::PartialRecovery`] (exit 5) *after* the output exists.
#[allow(clippy::too_many_arguments)]
fn write_decompressed(
    opts: &Opts,
    out: &mut dyn Write,
    input: &str,
    mut decoded: ninec_testdata::trit::TritVec,
    te_pattern_len: usize,
    damage: Option<String>,
    repaired: usize,
) -> Result<(), CliError> {
    if let Some(strategy) = fill_strategy(opts)? {
        decoded = fill_trits(&decoded, strategy);
    }
    let pattern_len = if te_pattern_len > 0 {
        te_pattern_len
    } else {
        decoded.len()
    };
    if !decoded.len().is_multiple_of(pattern_len) {
        return Err(CliError::Failed(format!(
            "decoded length {} is not a multiple of pattern length {pattern_len}",
            decoded.len()
        )));
    }
    let set = TestSet::from_stream(pattern_len, decoded);
    ninec_testdata::io::write_test_set_file(output(opts)?, &set)?;
    writeln!(
        out,
        "{input}: decoded {} patterns x {} cells{}{}",
        set.num_patterns(),
        set.pattern_len(),
        if repaired > 0 {
            format!(" ({repaired} segments rebuilt from parity)")
        } else {
            String::new()
        },
        if damage.is_some() {
            " (partial recovery)"
        } else {
            ""
        }
    )?;
    // Output was written; a lossy salvage still reports exit code 5 so
    // scripts can tell full from partial recovery.
    match damage {
        Some(msg) => Err(CliError::PartialRecovery(msg)),
        None => Ok(()),
    }
}

fn info(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let input = one_input(&opts)?;
    let bytes = fs::read(input)?;
    if ninec::engine::archive::is_archive(&bytes) {
        // A 9CA archive: open it (validating the epoch index under the
        // engine's limits) and print the shape and dedup stats.
        let engine = engine_from_opts(&opts);
        let arc = Archive::open(input, &engine).map_err(|e| archive_err(input, e))?;
        let stats = arc.stats();
        writeln!(
            out,
            "{input}: 9CA archive, {} frames, {} data + {} parity segment refs, \
             {} stored blobs ({} bytes for {} logical, dedup ratio {:.2}, {} hits), epoch {}",
            stats.frames,
            stats.data_segments,
            stats.parity_segments,
            stats.stored_blobs,
            stats.stored_bytes,
            stats.logical_bytes,
            stats.dedup_ratio(),
            stats.dedup_hits,
            stats.epoch,
        )?;
        for i in 0..arc.frame_count() {
            if let Some(fi) = arc.frame_info(i) {
                writeln!(
                    out,
                    "  frame {i}: v{}, {} trits, {} segments + {} parity{}",
                    fi.version,
                    fi.source_len,
                    fi.segments,
                    fi.parity_segments,
                    if fi.parity.1 > 0 {
                        format!(" (parity {}:{})", fi.parity.0, fi.parity.1)
                    } else {
                        String::new()
                    },
                )?;
            }
        }
        return Ok(());
    }
    if frame::is_frame(&bytes) {
        // One plan build — a single header/CRC scan pass — keeps going
        // past damaged segments, so `info` prints the per-segment decode
        // plan (including the damage map) instead of dying on the first
        // bad CRC.
        let plan = DecodeSession::new()
            .plan(&bytes)
            .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
        let compressed_bits = bytes.len() * 8;
        writeln!(
            out,
            "{input}: 9CSF frame, {} segments ({} intact), {} compressed bits for {} source \
             bits (CR {:.2}%), lengths {:?}",
            plan.entries().len(),
            plan.intact_count(),
            compressed_bits,
            plan.source_len(),
            (plan.source_len() as f64 - compressed_bits as f64)
                / (plan.source_len() as f64).max(1.0)
                * 100.0,
            plan.table_lengths(),
        )?;
        if plan.parity_r() > 0 {
            // v3: report the parity-group geometry and how much of the
            // repair budget is still standing.
            let groups = plan.groups();
            let parity_found = plan
                .entries()
                .iter()
                .filter(|e| matches!(e, PlanEntry::Parity { .. }))
                .count();
            let parity_bytes: usize = plan
                .entries()
                .iter()
                .filter(|e| matches!(e, PlanEntry::Parity { .. }))
                .map(|e| e.byte_range().len())
                .sum();
            writeln!(
                out,
                "  parity {}:{} — {} interleaved groups, {}/{} parity segments intact \
                 ({} parity bytes, {:.2}% overhead); up to {} lost segments per group \
                 rebuild bit-exact",
                plan.parity_g(),
                plan.parity_r(),
                groups,
                parity_found,
                groups * plan.parity_r() as usize,
                parity_bytes,
                parity_bytes as f64 / (bytes.len().max(1)) as f64 * 100.0,
                plan.parity_r(),
            )?;
        }
        // The per-segment plan, one line per slot: exactly what each
        // rung of the decode ladder will do with it.
        for (i, entry) in plan.entries().iter().enumerate() {
            let r = entry.byte_range();
            match entry {
                PlanEntry::Data { seg, .. } => writeln!(
                    out,
                    "  segment {i}: data k={} {} trits, bytes {}..{} — decode",
                    seg.k, seg.source_trits, r.start, r.end,
                )?,
                PlanEntry::OverBudget { seg, .. } => writeln!(
                    out,
                    "  segment {i}: data k={} {} trits, bytes {}..{} — over budget, erase",
                    seg.k, seg.source_trits, r.start, r.end,
                )?,
                PlanEntry::Parity { par, .. } => writeln!(
                    out,
                    "  segment {i}: parity group {} shard {}, bytes {}..{} — repair input",
                    par.group, par.pindex, r.start, r.end,
                )?,
                PlanEntry::Damaged { error, .. } => writeln!(
                    out,
                    "  damaged segment {i}: bytes {}..{}: {error}",
                    r.start, r.end,
                )?,
                _ => writeln!(out, "  segment {i}: bytes {}..{}", r.start, r.end)?,
            }
        }
        if let Some(err) = plan.strict_error() {
            writeln!(out, "  strict decode fails: {err}")?;
        }
        return Ok(());
    }
    // Binary bytes that are neither container: a typed usage error
    // naming the magic we actually saw, so a mis-pointed script learns
    // what the file was instead of getting a generic parse failure.
    // Control bytes count as binary even when they happen to decode as
    // UTF-8 (an ELF header is valid UTF-8 but is not a cube file).
    let looks_binary = bytes
        .iter()
        .any(|&b| b == 0x7F || (b < 0x20 && b != b'\t' && b != b'\n' && b != b'\r'));
    if looks_binary {
        return Err(CliError::Usage(format!(
            "{input}: not a 9CSF/9CA container (leading bytes {:02x?})",
            &bytes[..bytes.len().min(4)]
        )));
    }
    let text = String::from_utf8(bytes).map_err(|e| {
        let b = e.as_bytes();
        CliError::Usage(format!(
            "{input}: not a 9CSF/9CA container (leading bytes {:02x?})",
            &b[..b.len().min(4)]
        ))
    })?;
    if let Ok(te) = TeFile::parse(&text) {
        writeln!(
            out,
            "{input}: 9C stream, K={}, {} compressed bits for {} source bits \
             (CR {:.2}%), {} leftover X, lengths {:?}",
            te.k,
            te.stream.len(),
            te.source_len,
            (te.source_len as f64 - te.stream.len() as f64) / te.source_len.max(1) as f64 * 100.0,
            te.stream.count_x(),
            te.table.lengths()
        )?;
        return Ok(());
    }
    let cubes = ninec_testdata::io::parse_test_set(&text)
        .map_err(|e| CliError::Failed(format!("{input}: not a .te or cube file ({e})")))?;
    writeln!(out, "{input}: cube file, {}", TestSetStats::compute(&cubes))?;
    Ok(())
}

/// Maps an [`ArchiveError`] onto the CLI contract: pointing a verb at
/// something that is not an archive is a usage error (2), I/O problems
/// are 4, and everything else — corrupt indexes, rotted blobs, torn
/// appends, limit bombs — is an operation failure (3).
fn archive_err(input: &str, e: ArchiveError) -> CliError {
    match e {
        ArchiveError::Io { what, source } => CliError::Io(std::io::Error::new(
            source.kind(),
            format!("{input}: {what}: {source}"),
        )),
        ArchiveError::NotAnArchive { found } => CliError::Usage(format!(
            "{input}: not a 9CSF/9CA container (leading bytes {found:02x?})"
        )),
        other => CliError::Failed(format!("{input}: {other}")),
    }
}

fn archive_cmd(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    if opts.positional.is_empty() {
        return Err(CliError::Usage(
            "archive wants one or more input .9cf frames".into(),
        ));
    }
    let out_path = output(&opts)?;
    let arc_name = out_path.display().to_string();
    let engine = engine_from_opts(&opts);
    let mut arc =
        Archive::open_or_create(out_path, &engine).map_err(|e| archive_err(&arc_name, e))?;
    for input in &opts.positional {
        let bytes = fs::read(input)?;
        if !frame::is_frame(&bytes) {
            return Err(CliError::Usage(format!(
                "{input}: not a 9CSF frame (archive inputs must be .9cf)"
            )));
        }
        let receipt = arc
            .append_frame(&bytes)
            .map_err(|e| archive_err(input, e))?;
        if opts.verify {
            // Same guard as `compress --verify`: what the archive hands
            // back must be the byte-exact frame, and its re-decode must
            // match the decode of what went in.
            let extracted = arc
                .extract_frame(receipt.frame)
                .map_err(|e| archive_err(&arc_name, e))?;
            if extracted != bytes {
                return Err(CliError::Failed(format!(
                    "{input}: --verify mismatch: extracted frame differs from the input"
                )));
            }
            let expect = engine
                .decode_frame(&bytes)
                .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
            verify_frame_bytes(&engine, input, &extracted, &expect)?;
        }
        writeln!(
            out,
            "{input}: frame {} — {} segments, {} dedup hits, {} new bytes{}",
            receipt.frame,
            receipt.segments,
            receipt.dedup_hits,
            receipt.new_bytes,
            if opts.verify { ", verified" } else { "" },
        )?;
    }
    let stats = arc.stats();
    writeln!(
        out,
        "{arc_name}: {} frames, {} stored blobs, {} stored bytes for {} logical \
         (dedup ratio {:.2}), epoch {}",
        stats.frames,
        stats.stored_blobs,
        stats.stored_bytes,
        stats.logical_bytes,
        stats.dedup_ratio(),
        stats.epoch,
    )?;
    Ok(())
}

fn extract_cmd(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let input = one_input(&opts)?;
    let engine = engine_from_opts(&opts);
    let arc = Archive::open(input, &engine).map_err(|e| archive_err(input, e))?;
    let frame_idx = opts.frame.unwrap_or(0);
    if let Some((start, len)) = opts.range {
        // Random access through the seek index: only the overlapping
        // segment blobs are read and decoded.
        let trits = arc
            .decode_range(frame_idx, start, len)
            .map_err(|e| archive_err(input, e))?;
        fs::write(output(&opts)?, trits.to_string())?;
        writeln!(
            out,
            "{input}: frame {frame_idx} trits {start}..{} via random access",
            start + len,
        )?;
        return Ok(());
    }
    let bytes = arc
        .extract_frame(frame_idx)
        .map_err(|e| archive_err(input, e))?;
    if opts.verify {
        let expect = engine
            .decode_frame(&bytes)
            .map_err(|e| CliError::Failed(format!("{input}: frame {frame_idx}: {e}")))?;
        verify_frame_bytes(&engine, input, &bytes, &expect)?;
    }
    fs::write(output(&opts)?, &bytes)?;
    writeln!(
        out,
        "{input}: frame {frame_idx} -> {} bytes{}",
        bytes.len(),
        if opts.verify { ", verified" } else { "" },
    )?;
    Ok(())
}

fn scrub_cmd(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let input = one_input(&opts)?;
    let engine = engine_from_opts(&opts);
    let mut arc = Archive::open(input, &engine).map_err(|e| archive_err(input, e))?;
    let mode = if opts.check {
        ScrubMode::Check
    } else {
        ScrubMode::Repair
    };
    let report = arc.scrub(mode).map_err(|e| archive_err(input, e))?;
    writeln!(
        out,
        "{input}: scrubbed {} segment refs — {} repaired, {} degraded, {} lost (epoch {})",
        report.scrubbed_segments,
        report.repaired_segments,
        report.degraded_segments,
        report.lost_segments,
        arc.epoch(),
    )?;
    for f in &report.findings {
        let verdict = match f.verdict {
            ScrubVerdict::Clean => "clean".to_string(),
            ScrubVerdict::Repaired => "repaired bit-exact".to_string(),
            ScrubVerdict::Degraded { remaining_budget } => {
                format!("degraded (parity budget {remaining_budget} remaining)")
            }
            ScrubVerdict::Lost => "lost (beyond the parity budget)".to_string(),
        };
        writeln!(
            out,
            "  frame {} group {}: {verdict} — segments {:?}",
            f.frame, f.group, f.segments,
        )?;
    }
    if report.needs_attention() {
        // Rot the scrub could not (or, in --check, did not) repair:
        // exit 5, like a lossy salvage — the report above was written.
        return Err(CliError::PartialRecovery(format!(
            "{input}: {} degraded and {} lost segment refs remain",
            report.degraded_segments, report.lost_segments,
        )));
    }
    Ok(())
}

fn generate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let spec = one_input(&opts)?;
    let profile = if let Some(rest) = spec.strip_prefix("custom:") {
        let parts: Vec<&str> = rest.split(',').collect();
        let [p, l, x] = parts.as_slice() else {
            return Err(CliError::Usage("custom profile is custom:P,L,X%".into()));
        };
        let patterns: usize = p.parse().map_err(|_| CliError::Usage("bad P".into()))?;
        let len: usize = l.parse().map_err(|_| CliError::Usage("bad L".into()))?;
        let x_pct: f64 = x.parse().map_err(|_| CliError::Usage("bad X%".into()))?;
        if !(0.0..100.0).contains(&x_pct) || x_pct == 0.0 {
            return Err(CliError::Usage("X% must be in (0, 100)".into()));
        }
        SyntheticProfile::new("custom", patterns, len, x_pct / 100.0)
    } else {
        mintest_profile(spec).ok_or_else(|| CliError::Usage(format!("unknown profile {spec:?}")))?
    };
    let set = profile.generate(opts.seed);
    ninec_testdata::io::write_test_set_file(output(&opts)?, &set)?;
    writeln!(out, "{}: {}", profile.name, TestSetStats::compute(&set))?;
    Ok(())
}

fn atpg(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let input = one_input(&opts)?;
    let text = fs::read_to_string(input)?;
    let circuit = parse_bench(&text).map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
    let result = generate_tests(&circuit, AtpgConfig::default());
    ninec_testdata::io::write_test_set_file(output(&opts)?, &result.tests)?;
    writeln!(out, "{}: {result}", circuit.name())?;
    Ok(())
}

fn compare(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use ninec_baselines::registry::table4_registry;
    let opts = parse_opts(args)?;
    let input = one_input(&opts)?;
    let k = opts.k.unwrap_or(8);
    let cubes = ninec_testdata::io::read_test_set_file(input)
        .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
    let stream = cubes.as_stream();
    writeln!(out, "{input}: |T_D| = {} bits", cubes.total_bits())?;
    writeln!(out, "{:>12}  {:>8}", "code", "CR%")?;
    // One unified registry covers 9C and every baseline; the sweep-style
    // columns (VIHC, Golomb, Dict) report their best parameter.
    for codec in table4_registry(k).map_err(|e| CliError::Failed(e.to_string()))? {
        let label = match codec.name() {
            "9C" => format!("9C (K={k})"),
            other => other.to_owned(),
        };
        writeln!(out, "{label:>12}  {:>8.2}", codec.compression_ratio(stream))?;
    }
    Ok(())
}

fn rtl(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    if !opts.positional.is_empty() {
        return Err(CliError::Usage("rtl takes no positional arguments".into()));
    }
    let k = opts.k.unwrap_or(8);
    if k < 4 || k % 2 != 0 {
        return Err(CliError::Usage(format!(
            "-k must be even and >= 4, got {k}"
        )));
    }
    let mut rtl = decoder_verilog(k);
    if opts.testbench {
        // Build a short self-test stream with the reference model so the
        // emitted testbench is self-checking out of the box.
        use ninec_decompressor::single::{ClockRatio, SingleScanDecoder};
        use ninec_testdata::gen::SyntheticProfile;
        let cubes = SyntheticProfile::new("rtl-selftest", 4, 8 * k, 0.7).generate(opts.seed);
        let encoded = Encoder::new(k)
            .map_err(|e| CliError::Failed(e.to_string()))?
            .encode_set(&cubes);
        let bits = encoded.to_bitvec(FillStrategy::Zero);
        let decoder = SingleScanDecoder::new(k, encoded.table().clone(), ClockRatio::new(8));
        let trace = decoder
            .run(&bits, cubes.total_bits())
            .map_err(|e| CliError::Failed(e.to_string()))?;
        rtl.push('\n');
        rtl.push_str(&ninec_decompressor::verilog::testbench_verilog(
            k,
            8,
            &bits,
            &trace.scan_out,
        ));
    }
    ninec_decompressor::verilog::lint(&rtl).map_err(CliError::Failed)?;
    fs::write(output(&opts)?, &rtl)?;
    writeln!(
        out,
        "wrote ninec_decoder_k{k}{} ({} lines of Verilog)",
        if opts.testbench {
            " + self-checking testbench"
        } else {
            ""
        },
        rtl.lines().count()
    )?;
    Ok(())
}

/// Minimal JSON string escaping for the `trace --json` document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `ninec trace <in.9cf>`: replay the frame through the audited decode
/// ladder and print the per-frame audit trail — one line per segment
/// naming the rung it resolved on, the worker that decoded it and the
/// decode wall-clock (from the flight recorder, while it is on).
fn trace_cmd(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let input = one_input(&opts)?;
    let bytes = fs::read(input)?;
    if !frame::is_frame(&bytes) {
        return Err(CliError::Failed(format!(
            "{input}: not a 9CSF frame (trace replays binary .9cf frames)"
        )));
    }
    let mut session = DecodeSession::new().audit(true);
    if let Some(threads) = opts.threads {
        session = session.threads(threads);
    }
    let policy = if opts.no_repair {
        Policy::Salvage
    } else {
        Policy::Repair
    };
    let outcome = session
        .decode_frame(&bytes, policy)
        .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
    let audit = outcome
        .audit
        .ok_or_else(|| CliError::Failed(format!("{input}: audited decode produced no audit")))?;
    // A clean frame resolves strict with no report: every segment counts
    // as recovered.
    let (recovered_segments, total_segments) = match &outcome.report {
        Some(report) => (report.recovered_segments, report.total_segments),
        None => (audit.segments.len(), audit.segments.len()),
    };
    if opts.json {
        let segs: Vec<String> = audit
            .segments
            .iter()
            .map(|s| {
                let mut obj = format!("{{\"index\":{},\"rung\":\"{}\"", s.index, s.rung.label());
                if let SegmentRung::Repaired { group, parity_used } = s.rung {
                    obj.push_str(&format!(",\"group\":{group},\"parity_used\":{parity_used}"));
                }
                if let Some(w) = s.worker {
                    obj.push_str(&format!(",\"worker\":{w}"));
                }
                if let Some(ns) = s.nanos {
                    obj.push_str(&format!(",\"nanos\":{ns}"));
                }
                obj.push('}');
                obj
            })
            .collect();
        writeln!(
            out,
            "{{\"input\":\"{}\",\"trace\":{},\"recovered_segments\":{},\"total_segments\":{},\
             \"strict\":{},\"repaired\":{},\"salvaged\":{},\"segments\":[{}]}}",
            json_escape(input),
            audit.trace,
            recovered_segments,
            total_segments,
            audit.strict_segments(),
            audit.repaired_segments(),
            audit.salvaged_segments(),
            segs.join(","),
        )?;
    } else {
        writeln!(
            out,
            "{input}: {}/{} segments recovered ({} strict, {} repaired, {} salvaged), trace {}",
            recovered_segments,
            total_segments,
            audit.strict_segments(),
            audit.repaired_segments(),
            audit.salvaged_segments(),
            audit.trace,
        )?;
        for s in &audit.segments {
            let worker = s.worker.map_or_else(|| "-".to_owned(), |w| w.to_string());
            let dur = s
                .nanos
                .map_or_else(|| "-".to_owned(), |ns| format!("{ns} ns"));
            let detail = match s.rung {
                SegmentRung::Repaired { group, parity_used } => format!(
                    "  (group {group}, {parity_used} parity shard{})",
                    if parity_used == 1 { "" } else { "s" }
                ),
                _ => String::new(),
            };
            writeln!(
                out,
                "  segment {}: {:<8}  worker {worker:>2}  {dur:>12}{detail}",
                s.index,
                s.rung.label(),
            )?;
        }
    }
    // Output printed; lossy recovery still reports exit code 5 so
    // scripts can tell a fully recovered frame from a lossy one.
    match &outcome.report {
        Some(report) if !report.is_full_recovery() => {
            Err(CliError::PartialRecovery(damage_map(input, report)))
        }
        _ => Ok(()),
    }
}

/// Builds the serve configuration from the CLI flags. Split from
/// [`serve`] so the flag-to-config mapping is testable without binding
/// a listener.
fn serve_config_from_opts(opts: &Opts) -> Result<ninec_serve::ServeConfig, CliError> {
    let mut config = ninec_serve::ServeConfig::default();
    if let Some(addr) = &opts.addr {
        config.addr.clone_from(addr);
    }
    if let Some(addr) = &opts.http_addr {
        config.http_addr.clone_from(addr);
    }
    config.http = !opts.no_http;
    if let Some(path) = &opts.tenants {
        let text = fs::read_to_string(path)?;
        config.tenants = ninec_serve::parse_tenants(&text)
            .map_err(|e| CliError::Failed(format!("{}: {e}", path.display())))?;
    }
    if let Some(n) = opts.threads {
        config.decode_threads = n;
    }
    if let Some(bits) = opts.segment_bits {
        config.segment_bits = bits;
    }
    if let Some(parity) = opts.parity {
        config.parity = parity;
    }
    if let Some(n) = opts.handler_threads {
        config.handler_threads = n;
    }
    if let Some(n) = opts.max_inflight {
        config.max_inflight = n;
    }
    if let Some(n) = opts.degrade_threshold {
        config.degrade_threshold = n;
    }
    if let Some(ms) = opts.max_request_time_ms {
        // 0 disables the ceiling — requests then run as long as the
        // client's own deadline (if any) allows.
        config.max_request_time = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    config.archive.clone_from(&opts.archive);
    Ok(config)
}

/// `chaos-proxy <upstream>`: the test harness's fault-injection proxy
/// as a standalone process, for smoke scripts and manual failure drills.
fn chaos_proxy(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let [upstream] = opts.positional.as_slice() else {
        return Err(CliError::Usage(
            "chaos-proxy wants exactly one <upstream-addr>".into(),
        ));
    };
    let upstream: std::net::SocketAddr = upstream
        .parse()
        .map_err(|_| CliError::Usage(format!("bad upstream address {upstream:?}")))?;
    let mut config = ninec_serve::ChaosConfig {
        delay: std::time::Duration::from_millis(opts.delay_ms.unwrap_or(0)),
        throttle_bytes_per_sec: opts.throttle_bps.unwrap_or(0),
        torn_write_permille: opts.torn_permille.unwrap_or(0),
        blackhole_permille: opts.blackhole_permille.unwrap_or(0),
        seed: opts.seed,
        ..ninec_serve::ChaosConfig::default()
    };
    if let Some(addr) = &opts.addr {
        config.listen.clone_from(addr);
    }
    let proxy = ninec_serve::ChaosProxy::start(upstream, config)?;
    // Same contract as `serve`: the smoke harness reads this line for
    // the ephemeral port, then the process blocks until killed.
    writeln!(out, "listening {}", proxy.addr())?;
    out.flush()?;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn serve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    if !opts.positional.is_empty() {
        return Err(CliError::Usage(format!(
            "serve takes flags only, got {:?}",
            opts.positional
        )));
    }
    let config = serve_config_from_opts(&opts)?;
    let server = ninec_serve::Server::start(config)?;
    // The smoke harness (scripts/ci.sh) reads these lines to learn the
    // ephemeral ports, so flush before blocking.
    writeln!(out, "listening {}", server.addr())?;
    if let Some(http) = server.http_addr() {
        writeln!(out, "metrics http://{http}/metrics")?;
        writeln!(out, "trace http://{http}/trace")?;
    }
    out.flush()?;
    // The acceptor, handler pool and exporter run on their own threads;
    // this thread only keeps the `Server` (and the process) alive until
    // the operator kills it.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Maps a wire-client failure onto the CLI error contract: connection
/// problems are I/O (4), protocol violations are failures (3), and a
/// server refusal carries its wire status byte through as the exit
/// code — see [`EXIT_CODES`].
fn client_err(e: ninec_serve::ClientError) -> CliError {
    match e {
        ninec_serve::ClientError::Io(io) => CliError::Io(io),
        ninec_serve::ClientError::Server {
            status,
            degraded,
            message,
        } => CliError::Service {
            code: status as u8,
            message: if degraded {
                format!("{message} (server degraded)")
            } else {
                message
            },
        },
        other => CliError::Failed(format!("wire protocol error: {other}")),
    }
}

fn client(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_opts(args)?;
    let (addr, verb, rest) = match opts.positional.as_slice() {
        [addr, verb, rest @ ..] => (addr.as_str(), verb.as_str(), rest),
        _ => {
            return Err(CliError::Usage(
                "client wants <addr> ping|compress|decompress|info|range|metrics".into(),
            ))
        }
    };
    if verb == "metrics" {
        // Raw GET against the exporter listener — <addr> here is the
        // http address `serve` printed, not the wire address.
        let body = ninec_serve::client::http_get(addr, "/metrics").map_err(client_err)?;
        write!(out, "{body}")?;
        return Ok(());
    }
    // Every client connection goes through the retrying wrapper; with
    // the default --retries 0 it behaves exactly like a plain client
    // (one attempt, typed errors straight through).
    let options = ninec_serve::ClientOptions {
        deadline: opts.deadline_ms.map(std::time::Duration::from_millis),
        ..ninec_serve::ClientOptions::default()
    };
    let policy = ninec_serve::RetryPolicy {
        max_retries: opts.retries.unwrap_or(0),
        ..ninec_serve::RetryPolicy::default()
    };
    let mut client = ninec_serve::RetryingClient::new(addr, options, policy).map_err(client_err)?;
    // A deadline needs the HELLO negotiation even without --tenant.
    if opts.tenant.is_some() || opts.deadline_ms.is_some() {
        client
            .hello(opts.tenant.as_deref().unwrap_or("default"))
            .map_err(client_err)?;
    }
    let one_file = |rest: &[String]| -> Result<String, CliError> {
        match rest {
            [one] => Ok(one.clone()),
            _ => Err(CliError::Usage(format!(
                "client {verb} wants exactly one input file"
            ))),
        }
    };
    match verb {
        "ping" => {
            // `hello` already ran for --tenant; greet explicitly so a
            // bare ping exercises the wire too.
            let greeting = client
                .hello(opts.tenant.as_deref().unwrap_or("default"))
                .map_err(client_err)?;
            writeln!(out, "{greeting}")?;
            Ok(())
        }
        "compress" => {
            let input = one_file(rest)?;
            let k = opts.k.unwrap_or(8);
            let k = u16::try_from(k)
                .map_err(|_| CliError::Usage(format!("-k {k} does not fit the wire (u16)")))?;
            let cubes = ninec_testdata::io::read_test_set_file(&input)
                .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
            let frame = client
                .compress(k, &cubes.as_stream().to_string())
                .map_err(client_err)?;
            let out_path = output(&opts)?;
            fs::write(out_path, &frame)?;
            writeln!(
                out,
                "{input}: {} -> {} bits over the wire, 9CSF frame",
                cubes.total_bits(),
                frame.len() * 8,
            )?;
            Ok(())
        }
        "decompress" => {
            let input = one_file(rest)?;
            let frame = fs::read(&input)?;
            // Same policy surface as the local verb: the full ladder by
            // default, --no-repair pins strict, --salvage allows loss.
            let policy = match (opts.no_repair, opts.salvage) {
                (true, false) => Policy::Strict,
                (false, true) => Policy::Salvage,
                (false, false) => Policy::Repair,
                (true, true) => {
                    return Err(CliError::Usage(
                        "--no-repair and --salvage conflict on the wire: the \
                         serve ladder has no strict-then-salvage rung"
                            .into(),
                    ))
                }
            };
            let reply = client.decode(&frame, policy).map_err(client_err)?;
            let out_path = output(&opts)?;
            fs::write(out_path, reply.trits.as_bytes())?;
            writeln!(
                out,
                "{input}: {} trits via {} rung{}",
                reply.trits.len(),
                reply.rung.label(),
                if reply.degraded {
                    " (server degraded)"
                } else {
                    ""
                },
            )?;
            if reply.partial {
                return Err(CliError::PartialRecovery(format!(
                    "{input}: server salvage lost {} segment(s); output written",
                    reply.damaged,
                )));
            }
            Ok(())
        }
        "info" => {
            let input = one_file(rest)?;
            let frame = fs::read(&input)?;
            let info = client.info(&frame).map_err(client_err)?;
            write!(out, "{info}")?;
            Ok(())
        }
        "range" => {
            // Random access into the server's hosted archive: nothing
            // is uploaded, only the 20-byte coordinate triple.
            if !rest.is_empty() {
                return Err(CliError::Usage(format!(
                    "client range takes --frame/--range flags only, got {rest:?}"
                )));
            }
            let Some((start, len)) = opts.range else {
                return Err(CliError::Usage(
                    "client range wants --range <start>:<len>".into(),
                ));
            };
            let frame = opts.frame.unwrap_or(0);
            let frame = u32::try_from(frame)
                .map_err(|_| CliError::Usage(format!("--frame {frame} does not fit the wire")))?;
            let trits = client
                .archive_range(frame, start as u64, len as u64)
                .map_err(client_err)?;
            match &opts.output {
                Some(path) => {
                    fs::write(path, trits.as_bytes())?;
                    writeln!(
                        out,
                        "frame {frame} trits {start}..{}: {} trits written",
                        start + len,
                        trits.len()
                    )?;
                }
                None => writeln!(out, "{trits}")?,
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown client verb {other:?} (want ping|compress|decompress|info|range|metrics)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ninec_cli_{name}"));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        String::from_utf8(out).unwrap()
    }

    fn run_err(args: &[&str]) -> CliError {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap_err()
    }

    fn path_str(p: &Path) -> &str {
        p.to_str().unwrap()
    }

    #[test]
    fn generate_compress_decompress_roundtrip() {
        let dir = tmpdir("roundtrip");
        let cubes = dir.join("s.cubes");
        let te = dir.join("s.te");
        let back = dir.join("back.cubes");

        let msg = run_ok(&[
            "generate",
            "custom:20,64,75",
            "-o",
            path_str(&cubes),
            "--seed",
            "3",
        ]);
        assert!(msg.contains("20 x 64"));

        let msg = run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&te),
            "-k",
            "8",
            "--fill",
            "keep",
        ]);
        assert!(msg.contains("CR"));

        run_ok(&[
            "decompress",
            path_str(&te),
            "-o",
            path_str(&back),
            "--fill",
            "keep",
        ]);
        let orig = ninec_testdata::io::read_test_set_file(&cubes).unwrap();
        let round = ninec_testdata::io::read_test_set_file(&back).unwrap();
        assert_eq!(round.num_patterns(), orig.num_patterns());
        assert!(round.pattern_len() == orig.pattern_len());
        // Care bits preserved end to end.
        for (a, b) in orig.patterns().zip(round.patterns()) {
            for i in 0..a.len() {
                let s = a.get(i).unwrap();
                if s.is_care() {
                    assert_eq!(Some(s), b.get(i));
                }
            }
        }
    }

    #[test]
    fn compress_with_fill_produces_specified_stream() {
        let dir = tmpdir("fill");
        let cubes = dir.join("f.cubes");
        let te = dir.join("f.te");
        run_ok(&["generate", "custom:10,40,80", "-o", path_str(&cubes)]);
        run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&te),
            "--fill",
            "zero",
        ]);
        let parsed = TeFile::parse(&fs::read_to_string(&te).unwrap()).unwrap();
        assert_eq!(parsed.stream.count_x(), 0);
    }

    #[test]
    fn freq_directed_flag_reassigns_lengths() {
        let dir = tmpdir("fd");
        let cubes = dir.join("fd.cubes");
        let te = dir.join("fd.te");
        run_ok(&["generate", "s5378", "-o", path_str(&cubes)]);
        let msg = run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&te),
            "--freq-directed",
        ]);
        assert!(msg.contains("frequency-directed"));
        let parsed = TeFile::parse(&fs::read_to_string(&te).unwrap()).unwrap();
        // The decoder can be rebuilt from the stored lengths.
        assert!(parsed.decode().is_ok());
    }

    #[test]
    fn info_detects_both_formats() {
        let dir = tmpdir("info");
        let cubes = dir.join("i.cubes");
        let te = dir.join("i.te");
        run_ok(&["generate", "custom:5,32,70", "-o", path_str(&cubes)]);
        run_ok(&["compress", path_str(&cubes), "-o", path_str(&te)]);
        assert!(run_ok(&["info", path_str(&cubes)]).contains("cube file"));
        assert!(run_ok(&["info", path_str(&te)]).contains("9C stream"));
    }

    #[test]
    fn atpg_command_runs_on_bundled_bench() {
        let dir = tmpdir("atpg");
        let bench = dir.join("s27.bench");
        fs::write(&bench, ninec_circuit::bench::S27).unwrap();
        let out_cubes = dir.join("s27.cubes");
        let msg = run_ok(&["atpg", path_str(&bench), "-o", path_str(&out_cubes)]);
        assert!(msg.contains("100.0% coverage"), "{msg}");
        let cubes = ninec_testdata::io::read_test_set_file(&out_cubes).unwrap();
        assert_eq!(cubes.pattern_len(), 7);
    }

    #[test]
    fn rtl_command_writes_lintable_verilog() {
        let dir = tmpdir("rtl");
        let v = dir.join("dec.v");
        let msg = run_ok(&["rtl", "-o", path_str(&v), "-k", "16"]);
        assert!(msg.contains("ninec_decoder_k16"));
        let text = fs::read_to_string(&v).unwrap();
        assert!(text.contains("module ninec_decoder_k16"));
    }

    #[test]
    fn rtl_with_testbench() {
        let dir = tmpdir("rtltb");
        let v = dir.join("dec_tb.v");
        let msg = run_ok(&["rtl", "-o", path_str(&v), "-k", "8", "--tb"]);
        assert!(msg.contains("self-checking testbench"));
        let text = fs::read_to_string(&v).unwrap();
        assert!(text.contains("module ninec_decoder_k8_tb"));
        assert!(text.contains("PASS"));
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run_err(&[]), CliError::Usage(_)));
        assert!(matches!(run_err(&["frobnicate"]), CliError::Usage(_)));
        assert!(matches!(run_err(&["compress"]), CliError::Usage(_)));
        assert!(matches!(
            run_err(&["compress", "a", "b", "-o", "c"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["rtl", "-o", "x.v", "-k", "7"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["generate", "custom:1,2", "-o", "x"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["generate", "nope", "-o", "x"]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn compare_lists_all_codecs() {
        let dir = tmpdir("compare");
        let cubes = dir.join("c.cubes");
        run_ok(&["generate", "custom:15,64,80", "-o", path_str(&cubes)]);
        let msg = run_ok(&["compare", path_str(&cubes), "-k", "8"]);
        for name in [
            "9C", "FDR", "EFDR", "ARL", "Golomb", "VIHC", "SelHuff", "Dict",
        ] {
            assert!(msg.contains(name), "missing {name} in:\n{msg}");
        }
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("USAGE"));
    }

    #[test]
    fn exit_codes_distinguish_error_classes() {
        assert_eq!(run_err(&["frobnicate"]).exit_code(), 2);
        let dir = tmpdir("exitcodes");
        let bogus = dir.join("bogus.cubes");
        fs::write(&bogus, "not a cube file at all\n!!!").unwrap();
        let te = dir.join("x.te");
        let failed = run_err(&["compress", path_str(&bogus), "-o", path_str(&te)]);
        assert!(matches!(failed, CliError::Failed(_)));
        assert_eq!(failed.exit_code(), 3);
        let io = run_err(&["decompress", "/nonexistent/no/such.te", "-o", "out"]);
        assert!(matches!(io, CliError::Io(_)));
        assert_eq!(io.exit_code(), 4);
    }

    #[test]
    fn io_error_report_prints_source_chain() {
        let err = run_err(&["decompress", "/nonexistent/no/such.te", "-o", "out"]);
        let report = err.report();
        assert!(report.starts_with("ninec: i/o error"), "{report}");
        assert!(report.contains("caused by:"), "{report}");
        // The io::Error detail lives in the chain, not the headline.
        assert!(
            report.contains("No such file") || report.contains("not found"),
            "{report}"
        );
    }

    #[test]
    fn stats_text_prints_prometheus_exposition() {
        let dir = tmpdir("statstext");
        let cubes = dir.join("s.cubes");
        let te = dir.join("s.te");
        run_ok(&["generate", "custom:12,64,80", "-o", path_str(&cubes)]);
        let msg = run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&te),
            "--stats",
            "text",
        ]);
        assert!(msg.contains("# TYPE"), "{msg}");
        assert!(msg.contains("ninec_encode_blocks"), "{msg}");
    }

    #[test]
    fn stats_json_parses_and_has_nonzero_encode_metrics() {
        let dir = tmpdir("statsjson");
        let cubes = dir.join("s.cubes");
        let te = dir.join("s.te");
        run_ok(&["generate", "custom:12,64,80", "-o", path_str(&cubes)]);
        let msg = run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&te),
            "--stats",
            "json",
        ]);
        // The JSON document follows the human summary line: parse from the
        // first '{' to the last '}'.
        let start = msg.find('{').expect("json object in output");
        let end = msg.rfind('}').expect("json object in output");
        let doc = serde_json::from_str(&msg[start..=end]).expect("--stats json must be valid JSON");
        let blocks = doc["counters"]["ninec.encode.blocks"]
            .as_u64()
            .expect("encode block counter present");
        assert!(blocks > 0, "expected nonzero blocks: {doc:?}");
        assert!(
            doc["histograms"]["ninec.encode.throughput_mbit_s"]["count"]
                .as_u64()
                .unwrap_or(0)
                > 0,
            "expected a throughput sample: {doc:?}"
        );
    }

    #[test]
    fn trace_spans_show_nested_encode_span() {
        let dir = tmpdir("spans");
        let cubes = dir.join("s.cubes");
        let te = dir.join("s.te");
        run_ok(&["generate", "custom:8,64,75", "-o", path_str(&cubes)]);
        let msg = run_ok(&[
            "--trace-spans",
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&te),
        ]);
        assert!(msg.contains("cli_compress"), "{msg}");
        assert!(msg.contains("encode_chunked"), "{msg}");
    }

    #[test]
    fn frame_roundtrip_through_9cf_container() {
        let dir = tmpdir("frame");
        let cubes = dir.join("f.cubes");
        let frame = dir.join("f.9cf");
        let back = dir.join("back.cubes");
        run_ok(&[
            "generate",
            "custom:24,64,75",
            "-o",
            path_str(&cubes),
            "--seed",
            "7",
        ]);
        let msg = run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&frame),
            "--threads",
            "4",
            "--segment-bits",
            "256",
        ]);
        assert!(msg.contains("9CSF frame"), "{msg}");
        // Byte-identical at every thread count.
        let bytes4 = fs::read(&frame).unwrap();
        run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&frame),
            "--threads",
            "1",
            "--segment-bits",
            "256",
        ]);
        assert_eq!(fs::read(&frame).unwrap(), bytes4);
        let msg = run_ok(&["info", path_str(&frame)]);
        assert!(msg.contains("9CSF frame"), "{msg}");
        run_ok(&[
            "decompress",
            path_str(&frame),
            "-o",
            path_str(&back),
            "--threads",
            "2",
            "--fill",
            "keep",
        ]);
        let orig = ninec_testdata::io::read_test_set_file(&cubes).unwrap();
        let round = ninec_testdata::io::read_test_set_file(&back).unwrap();
        assert_eq!(round.total_bits(), orig.total_bits());
        let (a, b) = (orig.as_stream(), round.as_stream());
        for i in 0..a.len() {
            let s = a.get(i).unwrap();
            if s.is_care() {
                assert_eq!(Some(s), b.get(i), "care bit {i}");
            }
        }
    }

    #[test]
    fn frame_rejects_fill_and_freq_directed() {
        let dir = tmpdir("framefill");
        let cubes = dir.join("f.cubes");
        run_ok(&["generate", "custom:8,32,70", "-o", path_str(&cubes)]);
        let out_9cf = dir.join("f.9cf");
        assert!(matches!(
            run_err(&[
                "compress",
                path_str(&cubes),
                "-o",
                path_str(&out_9cf),
                "--fill",
                "zero",
            ]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&[
                "compress",
                path_str(&cubes),
                "-o",
                path_str(&out_9cf),
                "--freq-directed",
            ]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn corrupt_frame_is_a_failed_error() {
        let dir = tmpdir("framecorrupt");
        let cubes = dir.join("c.cubes");
        let frame = dir.join("c.9cf");
        run_ok(&["generate", "custom:8,64,70", "-o", path_str(&cubes)]);
        run_ok(&["compress", path_str(&cubes), "-o", path_str(&frame)]);
        // Truncate the frame: typed Failed (exit 3), never a panic.
        let mut bytes = fs::read(&frame).unwrap();
        bytes.truncate(bytes.len() - 1);
        fs::write(&frame, &bytes).unwrap();
        let err = run_err(&["decompress", path_str(&frame), "-o", "out"]);
        assert!(matches!(err, CliError::Failed(_)));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn salvage_decompress_distinguishes_full_from_partial_recovery() {
        let dir = tmpdir("salvage");
        let cubes = dir.join("s.cubes");
        let frame_path = dir.join("s.9cf");
        let back = dir.join("back.cubes");
        run_ok(&["generate", "custom:24,64,75", "-o", path_str(&cubes)]);
        run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&frame_path),
            "--segment-bits",
            "256",
        ]);
        // Intact frame: --salvage is a no-op, exit 0.
        let msg = run_ok(&[
            "decompress",
            path_str(&frame_path),
            "-o",
            path_str(&back),
            "--salvage",
            "--fill",
            "keep",
        ]);
        assert!(!msg.contains("partial"), "{msg}");

        // Corrupt one payload byte of the first segment.
        let mut bytes = fs::read(&frame_path).unwrap();
        bytes[frame::HEADER_BYTES + frame::SEGMENT_HEADER_BYTES] ^= 0x55;
        fs::write(&frame_path, &bytes).unwrap();

        // Strict decompress fails closed (exit 3)...
        let err = run_err(&["decompress", path_str(&frame_path), "-o", path_str(&back)]);
        assert_eq!(err.exit_code(), 3);

        // ...salvage writes the output and reports partial recovery (5).
        let args: Vec<String> = [
            "decompress",
            path_str(&frame_path),
            "-o",
            path_str(&back),
            "--salvage",
            "--fill",
            "keep",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = Vec::new();
        let err = run(&args, &mut out).unwrap_err();
        assert!(matches!(err, CliError::PartialRecovery(_)));
        assert_eq!(err.exit_code(), 5);
        assert!(err.report().contains("damaged"), "{}", err.report());
        let written = String::from_utf8(out).unwrap();
        assert!(written.contains("partial recovery"), "{written}");
        let set = ninec_testdata::io::read_test_set_file(&back).unwrap();
        let orig = ninec_testdata::io::read_test_set_file(&cubes).unwrap();
        assert_eq!(set.total_bits(), orig.total_bits());

        // `info` prints the damage map instead of dying on the bad CRC.
        let msg = run_ok(&["info", path_str(&frame_path)]);
        assert!(msg.contains("damaged segment 0"), "{msg}");
        assert!(msg.contains("intact"), "{msg}");

        // --salvage makes no sense for the textual format.
        let te = dir.join("s.te");
        run_ok(&["compress", path_str(&cubes), "-o", path_str(&te)]);
        assert!(matches!(
            run_err(&[
                "decompress",
                path_str(&te),
                "-o",
                path_str(&back),
                "--salvage"
            ]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn threads_flag_on_te_path_is_bit_identical_to_serial() {
        let dir = tmpdir("threadste");
        let cubes = dir.join("t.cubes");
        let serial = dir.join("serial.te");
        let parallel = dir.join("parallel.te");
        run_ok(&["generate", "custom:16,64,75", "-o", path_str(&cubes)]);
        run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&serial),
            "--fill",
            "keep",
        ]);
        run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&parallel),
            "--threads",
            "8",
            "--segment-bits",
            "128",
            "--fill",
            "keep",
        ]);
        assert_eq!(
            fs::read_to_string(&serial).unwrap(),
            fs::read_to_string(&parallel).unwrap()
        );
    }

    #[test]
    fn bad_thread_flags_are_usage_errors() {
        assert!(matches!(
            run_err(&["compress", "x", "-o", "y", "--threads", "0"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["compress", "x", "-o", "y", "--threads", "lots"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["compress", "x", "-o", "y", "--segment-bits", "0"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["compress", "x", "-o", "y", "--segment-bits"]),
            CliError::Usage(_)
        ));
    }

    /// The message of the usage error (exit 2) `parse_opts` gives for
    /// `args`.
    fn usage_message(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        match parse_opts(&args) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{args:?} is no usage error: {other:?}"),
        }
    }

    /// A value flag's spelling, its message without a value, its message
    /// for the value `x` (`None` when any text is accepted), and further
    /// refused values with their messages.
    type FlagRow = (
        &'static str,
        &'static str,
        Option<&'static str>,
        &'static [(&'static str, &'static str)],
    );

    #[test]
    fn every_value_flag_pins_its_usage_messages() {
        let table: &[FlagRow] = &[
            ("-o", "-o needs a path", None, &[]),
            ("--output", "-o needs a path", None, &[]),
            ("-k", "-k needs a value", Some("bad -k \"x\""), &[]),
            ("--fill", "--fill needs a value", None, &[]),
            (
                "--seed",
                "--seed needs a value",
                Some("bad --seed \"x\""),
                &[],
            ),
            (
                "--threads",
                "--threads needs a value",
                Some("bad --threads \"x\""),
                &[("0", "--threads must be >= 1")],
            ),
            (
                "--segment-bits",
                "--segment-bits needs a value",
                Some("bad --segment-bits \"x\""),
                &[("0", "--segment-bits must be >= 1")],
            ),
            (
                "--parity",
                "--parity needs <g>:<r>",
                Some("--parity wants <g>:<r>, got \"x\""),
                &[
                    ("a:1", "bad --parity group size \"a\""),
                    ("1:b", "bad --parity shard count \"b\""),
                    ("256:1", "bad --parity group size \"256\""),
                    ("0:1", "--parity group size must be >= 1 when parity is on"),
                    (
                        "200:56",
                        "--parity 200:56 exceeds the GF(256) shard budget (g + r <= 255)",
                    ),
                ],
            ),
            ("--addr", "--addr needs <ip:port>", None, &[]),
            ("--http-addr", "--http-addr needs <ip:port>", None, &[]),
            ("--tenants", "--tenants needs a file path", None, &[]),
            (
                "--handler-threads",
                "--handler-threads needs a value",
                Some("bad --handler-threads \"x\""),
                &[("0", "--handler-threads must be >= 1")],
            ),
            (
                "--max-inflight",
                "--max-inflight needs a value",
                Some("bad --max-inflight \"x\""),
                &[],
            ),
            (
                "--degrade-threshold",
                "--degrade-threshold needs a value",
                Some("bad --degrade-threshold \"x\""),
                &[],
            ),
            ("--tenant", "--tenant needs a name", None, &[]),
            (
                "--max-request-time-ms",
                "--max-request-time-ms needs a value",
                Some("bad --max-request-time-ms \"x\""),
                &[],
            ),
            (
                "--deadline-ms",
                "--deadline-ms needs a value",
                Some("bad --deadline-ms \"x\""),
                &[("0", "--deadline-ms must be >= 1")],
            ),
            (
                "--retries",
                "--retries needs a value",
                Some("bad --retries \"x\""),
                &[],
            ),
            (
                "--delay-ms",
                "--delay-ms needs a value",
                Some("bad --delay-ms \"x\""),
                &[],
            ),
            (
                "--throttle-bps",
                "--throttle-bps needs a value",
                Some("bad --throttle-bps \"x\""),
                &[],
            ),
            (
                "--torn-permille",
                "--torn-permille needs 0..=1000",
                Some("bad --torn-permille \"x\""),
                &[
                    ("1001", "--torn-permille is out of 1000"),
                    ("65536", "bad --torn-permille \"65536\""),
                ],
            ),
            (
                "--blackhole-permille",
                "--blackhole-permille needs 0..=1000",
                Some("bad --blackhole-permille \"x\""),
                &[
                    ("1001", "--blackhole-permille is out of 1000"),
                    ("65536", "bad --blackhole-permille \"65536\""),
                ],
            ),
            (
                "--frame",
                "--frame needs an index",
                Some("bad --frame \"x\""),
                &[],
            ),
            (
                "--range",
                "--range needs <start>:<len>",
                Some("--range wants <start>:<len>, got \"x\""),
                &[
                    ("a:1", "bad --range start \"a\""),
                    ("1:b", "bad --range length \"b\""),
                ],
            ),
            ("--archive", "--archive needs a .9ca path", None, &[]),
            (
                "--max-segments",
                "--max-segments needs a value",
                Some("bad --max-segments \"x\""),
                &[("0", "--max-segments must be >= 1")],
            ),
            (
                "--max-total-alloc",
                "--max-total-alloc needs a value",
                Some("bad --max-total-alloc \"x\""),
                &[("0", "--max-total-alloc must be >= 1")],
            ),
        ];
        for &(flag, missing, unparsable, refused) in table {
            assert_eq!(usage_message(&[flag]), missing, "{flag}");
            match unparsable {
                Some(msg) => {
                    assert_eq!(usage_message(&[flag, "x"]), msg, "{flag} x");
                    assert!(usage_message(&[flag, "-1"]).contains(flag), "{flag} -1");
                }
                None => assert!(parse_opts(&[flag.into(), "x".into()]).is_ok(), "{flag}"),
            }
            for &(value, msg) in refused {
                assert_eq!(usage_message(&[flag, value]), msg, "{flag} {value}");
            }
        }
        assert_eq!(usage_message(&["--bogus"]), "unknown flag \"--bogus\"");
    }

    #[test]
    fn every_value_flag_lands_in_its_field() {
        let args = [
            "-o",
            "out",
            "-k",
            "12",
            "--fill",
            "zero",
            "--seed",
            "9",
            "--threads",
            "3",
            "--segment-bits",
            "128",
            "--parity",
            "4:2",
            "--addr",
            "a:1",
            "--http-addr",
            "h:2",
            "--tenants",
            "t.conf",
            "--handler-threads",
            "5",
            "--max-inflight",
            "6",
            "--degrade-threshold",
            "7",
            "--tenant",
            "acme",
            "--max-request-time-ms",
            "8",
            "--deadline-ms",
            "9",
            "--retries",
            "10",
            "--delay-ms",
            "11",
            "--throttle-bps",
            "12",
            "--torn-permille",
            "1000",
            "--blackhole-permille",
            "0",
            "--frame",
            "13",
            "--range",
            "14:15",
            "--archive",
            "a.9ca",
            "--max-segments",
            "16",
            "--max-total-alloc",
            "17",
            "in",
        ];
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let o = parse_opts(&args).unwrap();
        assert_eq!(o.positional, ["in"]);
        assert_eq!(o.output, Some(PathBuf::from("out")));
        assert_eq!(o.k, Some(12));
        assert_eq!(o.fill.as_deref(), Some("zero"));
        assert_eq!(o.seed, 9);
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.segment_bits, Some(128));
        assert_eq!(o.parity, Some((4, 2)));
        assert_eq!(o.addr.as_deref(), Some("a:1"));
        assert_eq!(o.http_addr.as_deref(), Some("h:2"));
        assert_eq!(o.tenants, Some(PathBuf::from("t.conf")));
        assert_eq!(o.handler_threads, Some(5));
        assert_eq!(o.max_inflight, Some(6));
        assert_eq!(o.degrade_threshold, Some(7));
        assert_eq!(o.tenant.as_deref(), Some("acme"));
        assert_eq!(o.max_request_time_ms, Some(8));
        assert_eq!(o.deadline_ms, Some(9));
        assert_eq!(o.retries, Some(10));
        assert_eq!(o.delay_ms, Some(11));
        assert_eq!(o.throttle_bps, Some(12));
        assert_eq!(o.torn_permille, Some(1000));
        assert_eq!(o.blackhole_permille, Some(0));
        assert_eq!(o.frame, Some(13));
        assert_eq!(o.range, Some((14, 15)));
        assert_eq!(o.archive.as_deref(), Some("a.9ca"));
        assert_eq!(o.max_segments, Some(16));
        assert_eq!(o.max_total_alloc, Some(17));
        assert_eq!(parse_opts(&[]).unwrap().seed, 1, "the default seed");
    }

    #[test]
    fn usage_documents_the_full_exit_code_contract() {
        // The doc and the implementation must not drift: every error
        // class's exit code appears in the EXIT_CODES block exactly as
        // `CliError::exit_code` reports it, plus success (0), and the
        // block itself appears verbatim in the help text.
        assert!(
            USAGE.contains(EXIT_CODES),
            "USAGE must embed EXIT_CODES verbatim:\n{}",
            USAGE.as_str()
        );
        let documented: Vec<(u8, CliError)> = vec![
            (2, CliError::Usage("x".into())),
            (3, CliError::Failed("x".into())),
            (4, CliError::Io(std::io::Error::other("x"))),
            (5, CliError::PartialRecovery("x".into())),
            (
                6,
                CliError::Service {
                    code: 6,
                    message: "busy".into(),
                },
            ),
            (
                7,
                CliError::Service {
                    code: 7,
                    message: "rate limited".into(),
                },
            ),
            (
                8,
                CliError::Service {
                    code: 8,
                    message: "deadline exceeded".into(),
                },
            ),
        ];
        assert!(
            EXIT_CODES.contains("\n    0   success"),
            "success line missing:\n{EXIT_CODES}"
        );
        for (code, err) in documented {
            assert_eq!(err.exit_code(), code, "{err:?}");
            assert!(
                EXIT_CODES.contains(&format!("\n    {code}   ")),
                "exit code {code} not documented:\n{EXIT_CODES}"
            );
        }
        // The serve wire statuses reuse the same numbers — a drift here
        // would silently break the exit-code pass-through.
        assert_eq!(ninec_serve::Status::BadRequest as u8, 2);
        assert_eq!(ninec_serve::Status::Failed as u8, 3);
        assert_eq!(ninec_serve::Status::Io as u8, 4);
        assert_eq!(ninec_serve::Status::Partial as u8, 5);
        assert_eq!(ninec_serve::Status::Busy as u8, 6);
        assert_eq!(ninec_serve::Status::RateLimited as u8, 7);
        assert_eq!(ninec_serve::Status::DeadlineExceeded as u8, 8);
        // A wire status of 0 must never make a failure exit 0.
        assert_eq!(
            CliError::Service {
                code: 0,
                message: "confused server".into()
            }
            .exit_code(),
            3
        );
        // `--help` prints the same contract.
        assert!(run_ok(&["help"]).contains(EXIT_CODES));
    }

    #[test]
    fn readme_quotes_the_exit_code_block_verbatim() {
        // The README's exit-code section is a copy of EXIT_CODES; this
        // test is what keeps the copy honest.
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let text = fs::read_to_string(readme).expect("README.md at the workspace root");
        assert!(
            text.contains(EXIT_CODES),
            "README.md must quote the EXIT_CODES block verbatim; update it \
             from crates/cli/src/lib.rs"
        );
    }

    #[test]
    fn client_roundtrips_against_a_live_server() {
        let mut server = ninec_serve::Server::start(ninec_serve::ServeConfig::default())
            .expect("ephemeral server starts");
        let addr = server.addr().to_string();
        let dir = tmpdir("cliserve");
        let cubes = dir.join("c.cubes");
        run_ok(&["generate", "custom:8,40,70", "-o", path_str(&cubes)]);
        let frame = dir.join("c.9cf");
        let msg = run_ok(&[
            "client",
            &addr,
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&frame),
        ]);
        assert!(msg.contains("over the wire"), "{msg}");
        let info = run_ok(&["client", &addr, "info", path_str(&frame)]);
        assert!(info.contains("segments"), "{info}");
        let trits = dir.join("c.trits");
        let msg = run_ok(&[
            "client",
            &addr,
            "decompress",
            path_str(&frame),
            "-o",
            path_str(&trits),
        ]);
        assert!(msg.contains("strict"), "{msg}");
        let text = fs::read_to_string(&trits).unwrap();
        assert!(text.chars().all(|c| "01X".contains(c)), "{text}");
        let msg = run_ok(&["client", &addr, "ping"]);
        assert!(msg.contains("tenant default"), "{msg}");
        server.shutdown();
    }

    #[test]
    fn client_range_reads_a_hosted_archive() {
        let dir = tmpdir("cliarcrange");
        let (frame, _) = small_v3_frame(&dir);
        let arc = dir.join("hosted.9ca");
        let _ = fs::remove_file(&arc);
        run_ok(&["archive", path_str(&frame), "-o", path_str(&arc)]);
        let mut server = ninec_serve::Server::start(ninec_serve::ServeConfig {
            archive: Some(path_str(&arc).to_string()),
            ..ninec_serve::ServeConfig::default()
        })
        .expect("ephemeral server starts");
        let addr = server.addr().to_string();
        // The served range must match the local random-access decode.
        let local = dir.join("local.txt");
        run_ok(&[
            "extract",
            path_str(&arc),
            "--range",
            "5:20",
            "-o",
            path_str(&local),
        ]);
        let remote = dir.join("remote.txt");
        let msg = run_ok(&[
            "client",
            &addr,
            "range",
            "--frame",
            "0",
            "--range",
            "5:20",
            "-o",
            path_str(&remote),
        ]);
        assert!(msg.contains("20 trits written"), "{msg}");
        assert_eq!(
            fs::read_to_string(&remote).unwrap(),
            fs::read_to_string(&local).unwrap()
        );
        // Missing coordinates are a usage error before anything is sent.
        let err = run_err(&["client", &addr, "range"]);
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        // Out-of-range coordinates come back as the wire's BadRequest.
        let err = run_err(&["client", &addr, "range", "--frame", "7", "--range", "0:1"]);
        assert!(matches!(err, CliError::Service { code: 2, .. }), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn client_maps_wire_refusals_onto_exit_codes() {
        let mut server = ninec_serve::Server::start(ninec_serve::ServeConfig::default())
            .expect("ephemeral server starts");
        let addr = server.addr().to_string();
        // Unknown tenant: BadRequest on the wire, exit 2 locally.
        let err = run_err(&["client", &addr, "ping", "--tenant", "ghost"]);
        assert!(matches!(err, CliError::Service { code: 2, .. }), "{err:?}");
        assert_eq!(err.exit_code(), 2);
        // A garbage frame: the server fails the decode, exit 3.
        let dir = tmpdir("cliwirecodes");
        let bogus = dir.join("bogus.9cf");
        fs::write(&bogus, b"not a frame").unwrap();
        let err = run_err(&[
            "client",
            &addr,
            "decompress",
            path_str(&bogus),
            "-o",
            path_str(&dir.join("out.trits")),
        ]);
        assert!(matches!(err, CliError::Service { code: 3, .. }), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn serve_flag_validation() {
        assert!(matches!(
            run_err(&["serve", "stray-positional"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["serve", "--handler-threads", "0"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["serve", "--tenants"]),
            CliError::Usage(_)
        ));
        // A tenants file that does not parse is an operation failure.
        let dir = tmpdir("servetenants");
        let bad = dir.join("tenants.conf");
        fs::write(&bad, "[tenant.x]\nnot-a-key = 1\n").unwrap();
        assert!(matches!(
            run_err(&["serve", "--tenants", path_str(&bad)]),
            CliError::Failed(_)
        ));
        // The flag-to-config mapping itself.
        let opts = parse_opts(&[
            "--addr".into(),
            "0.0.0.0:7777".into(),
            "--no-http".into(),
            "--max-inflight".into(),
            "3".into(),
            "--degrade-threshold".into(),
            "5".into(),
            "--handler-threads".into(),
            "2".into(),
        ])
        .unwrap();
        let config = serve_config_from_opts(&opts).unwrap();
        assert_eq!(config.addr, "0.0.0.0:7777");
        assert!(!config.http);
        assert_eq!(config.max_inflight, 3);
        assert_eq!(config.degrade_threshold, 5);
        assert_eq!(config.handler_threads, 2);
    }

    #[test]
    fn parity_flag_validation() {
        let dir = tmpdir("parityflags");
        let cubes = dir.join("p.cubes");
        run_ok(&["generate", "custom:8,32,70", "-o", path_str(&cubes)]);
        // Malformed specs and impossible geometry are usage errors (2).
        for bad in ["4", "4:", ":1", "a:b", "0:1", "200:200"] {
            let err = run_err(&[
                "compress",
                path_str(&cubes),
                "-o",
                path_str(&dir.join("p.9cf")),
                "--parity",
                bad,
            ]);
            assert!(matches!(err, CliError::Usage(_)), "--parity {bad}: {err:?}");
        }
        // Parity needs the frame container.
        assert!(matches!(
            run_err(&[
                "compress",
                path_str(&cubes),
                "-o",
                path_str(&dir.join("p.te")),
                "--parity",
                "4:1",
            ]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn repair_ladder_rebuilds_a_corrupted_v3_frame_bit_exact() {
        let dir = tmpdir("repair");
        let cubes = dir.join("r.cubes");
        let frame_path = dir.join("r.9cf");
        let clean_out = dir.join("clean.cubes");
        let back = dir.join("back.cubes");
        run_ok(&["generate", "custom:24,64,75", "-o", path_str(&cubes)]);
        let msg = run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&frame_path),
            "--segment-bits",
            "256",
            "--parity",
            "4:1",
        ]);
        assert!(msg.contains("parity 4:1"), "{msg}");

        // `info` reports the parity geometry.
        let msg = run_ok(&["info", path_str(&frame_path)]);
        assert!(msg.contains("parity 4:1"), "{msg}");
        assert!(msg.contains("interleaved groups"), "{msg}");

        // Reference output from the intact frame.
        run_ok(&[
            "decompress",
            path_str(&frame_path),
            "-o",
            path_str(&clean_out),
            "--fill",
            "keep",
        ]);

        // Corrupt one payload byte of the first data segment.
        let pristine = fs::read(&frame_path).unwrap();
        let mut bytes = pristine.clone();
        bytes[frame::HEADER_BYTES_V3 + frame::SEGMENT_HEADER_BYTES] ^= 0x55;
        fs::write(&frame_path, &bytes).unwrap();

        // Default decompress climbs to repair: exit 0, bit-exact output.
        let msg = run_ok(&[
            "decompress",
            path_str(&frame_path),
            "-o",
            path_str(&back),
            "--fill",
            "keep",
        ]);
        assert!(msg.contains("rebuilt from parity"), "{msg}");
        assert_eq!(
            fs::read_to_string(&back).unwrap(),
            fs::read_to_string(&clean_out).unwrap(),
            "repair must be bit-exact"
        );

        // --no-repair without --salvage fails closed (3)...
        let err = run_err(&[
            "decompress",
            path_str(&frame_path),
            "-o",
            path_str(&back),
            "--no-repair",
        ]);
        assert!(matches!(err, CliError::Failed(_)), "{err:?}");
        assert_eq!(err.exit_code(), 3);

        // ...and with --salvage keeps the erasure as partial recovery (5).
        let err = run_err(&[
            "decompress",
            path_str(&frame_path),
            "-o",
            path_str(&back),
            "--no-repair",
            "--salvage",
            "--fill",
            "keep",
        ]);
        assert!(matches!(err, CliError::PartialRecovery(_)), "{err:?}");
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn stdin_decompress_rejects_salvage() {
        // The message must be the salvage-specific one: a bare `-` is a
        // positional stdin pseudo-path, not an "unknown flag".
        match run_err(&["decompress", "-", "-o", "out.cubes", "--salvage"]) {
            CliError::Usage(msg) => assert!(msg.contains("whole frame"), "{msg}"),
            other => panic!("expected Usage, got {other:?}"),
        }
    }

    #[test]
    fn bare_dash_parses_as_a_positional_input() {
        let raw: Vec<String> = ["-", "--fill", "keep"]
            .iter()
            .map(|s| (*s).into())
            .collect();
        let opts = parse_opts(&raw).unwrap();
        assert_eq!(opts.positional, vec!["-".to_owned()]);
    }

    #[test]
    fn stats_flag_rejects_unknown_format() {
        assert!(matches!(
            run_err(&["help", "--stats", "xml"]),
            CliError::Usage(_)
        ));
        assert!(matches!(run_err(&["help", "--stats"]), CliError::Usage(_)));
    }

    #[test]
    fn stats_prom_prints_prometheus_exposition() {
        let dir = tmpdir("statsprom");
        let cubes = dir.join("s.cubes");
        let te = dir.join("s.te");
        run_ok(&["generate", "custom:12,64,80", "-o", path_str(&cubes)]);
        let msg = run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&te),
            "--stats",
            "prom",
        ]);
        assert!(msg.contains("# TYPE"), "{msg}");
        assert!(msg.contains("ninec_encode_blocks"), "{msg}");
        // Exposition-format shape: every histogram ends in +Inf.
        assert!(msg.contains("le=\"+Inf\""), "{msg}");
    }

    /// Builds a parity-protected v3 frame with one corrupted payload
    /// byte in `dir`, returning the frame path.
    fn corrupted_v3_frame(dir: &Path) -> PathBuf {
        let cubes = dir.join("t.cubes");
        let frame_path = dir.join("t.9cf");
        run_ok(&["generate", "custom:24,64,75", "-o", path_str(&cubes)]);
        run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&frame_path),
            "--segment-bits",
            "256",
            "--parity",
            "4:1",
        ]);
        let mut bytes = fs::read(&frame_path).unwrap();
        bytes[frame::HEADER_BYTES_V3 + frame::SEGMENT_HEADER_BYTES] ^= 0x55;
        fs::write(&frame_path, &bytes).unwrap();
        frame_path
    }

    #[test]
    fn trace_verb_prints_per_segment_audit() {
        let dir = tmpdir("traceverb");
        let frame_path = corrupted_v3_frame(&dir);

        // Repair rebuilds the damage: exit 0, audit names the rungs.
        let msg = run_ok(&["trace", path_str(&frame_path), "--threads", "2"]);
        assert!(msg.contains("segments recovered"), "{msg}");
        assert!(msg.contains("segment 0: repaired"), "{msg}");
        assert!(msg.contains("(group 0, 1 parity shard)"), "{msg}");
        assert!(msg.contains("strict"), "{msg}");

        // --no-repair: the damage is salvaged, exit code 5.
        let args: Vec<String> = ["trace", path_str(&frame_path), "--no-repair"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        let err = run(&args, &mut out).unwrap_err();
        assert!(matches!(err, CliError::PartialRecovery(_)), "{err:?}");
        assert_eq!(err.exit_code(), 5);
        let msg = String::from_utf8(out).unwrap();
        assert!(msg.contains("segment 0: salvaged"), "{msg}");

        // Not a frame: typed Failed.
        let te = dir.join("t.te");
        fs::write(&te, "junk").unwrap();
        assert!(matches!(
            run_err(&["trace", path_str(&te)]),
            CliError::Failed(_)
        ));
    }

    #[test]
    fn trace_verb_json_is_a_parseable_audit_document() {
        let dir = tmpdir("tracejson");
        let frame_path = corrupted_v3_frame(&dir);
        let msg = run_ok(&["trace", path_str(&frame_path), "--json"]);
        let doc: serde_json::Value =
            serde_json::from_str(msg.trim()).expect("trace --json must be valid JSON");
        assert_eq!(doc["repaired"].as_u64(), Some(1), "{doc:?}");
        let segs = doc["segments"].as_array().expect("segments array");
        assert!(!segs.is_empty());
        assert_eq!(segs[0]["rung"].as_str(), Some("repaired"), "{doc:?}");
        assert_eq!(segs[0]["group"].as_u64(), Some(0), "{doc:?}");
        assert_eq!(segs[1]["rung"].as_str(), Some("strict"), "{doc:?}");
    }

    #[test]
    fn trace_flag_writes_a_chrome_trace_file() {
        let dir = tmpdir("traceflag");
        let frame_path = corrupted_v3_frame(&dir);
        let back = dir.join("back.cubes");
        let trace_json = dir.join("decode.trace.json");
        run_ok(&[
            "decompress",
            path_str(&frame_path),
            "-o",
            path_str(&back),
            "--fill",
            "keep",
            "--trace",
            path_str(&trace_json),
        ]);
        let doc: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&trace_json).unwrap())
                .expect("--trace file must be valid Chrome trace JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert!(
            events
                .iter()
                .any(|e| e["name"].as_str() == Some("segment_decode")),
            "expected segment_decode spans in {doc:?}"
        );

        // A .jsonl path selects the JSON-lines dump: one object per line.
        let trace_jsonl = dir.join("decode.jsonl");
        run_ok(&[
            "trace",
            path_str(&frame_path),
            "--trace",
            path_str(&trace_jsonl),
        ]);
        let text = fs::read_to_string(&trace_jsonl).unwrap();
        for line in text.lines() {
            let obj: serde_json::Value = serde_json::from_str(line).expect("jsonl line parses");
            assert!(obj["kind"].as_str().is_some(), "{obj:?}");
        }
        assert!(!text.is_empty(), "recorder-on jsonl dump must have events");
    }

    /// Generates cubes and compresses them into a parity-protected
    /// frame; returns `(frame path, frame bytes)`.
    fn small_v3_frame(dir: &Path) -> (PathBuf, Vec<u8>) {
        let cubes = dir.join("a.cubes");
        let frame = dir.join("a.9cf");
        run_ok(&["generate", "custom:12,48,70", "-o", path_str(&cubes)]);
        run_ok(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&frame),
            "--segment-bits",
            "192",
            "--parity",
            "2:1",
            "--verify",
        ]);
        let bytes = fs::read(&frame).unwrap();
        (frame, bytes)
    }

    #[test]
    fn archive_extract_scrub_roundtrip() {
        let dir = tmpdir("archive_roundtrip");
        let (frame, frame_bytes) = small_v3_frame(&dir);
        let arc = dir.join("a.9ca");
        let _ = fs::remove_file(&arc);

        // Two appends of the same frame: full dedup, both verified.
        let msg = run_ok(&[
            "archive",
            path_str(&frame),
            path_str(&frame),
            "-o",
            path_str(&arc),
            "--verify",
        ]);
        assert!(msg.contains("verified"), "{msg}");
        assert!(msg.contains("2 frames"), "{msg}");

        // `info` sniffs the archive and reports the dedup shape.
        let msg = run_ok(&["info", path_str(&arc)]);
        assert!(msg.contains("9CA archive"), "{msg}");
        assert!(msg.contains("dedup ratio"), "{msg}");
        assert!(msg.contains("parity 2:1"), "{msg}");

        // Byte-exact extraction of the second frame.
        let back = dir.join("back.9cf");
        let msg = run_ok(&[
            "extract",
            path_str(&arc),
            "--frame",
            "1",
            "-o",
            path_str(&back),
            "--verify",
        ]);
        assert!(msg.contains("verified"), "{msg}");
        assert_eq!(fs::read(&back).unwrap(), frame_bytes);

        // Random access through the seek index: text over {0,1,X}.
        let range_out = dir.join("range.txt");
        run_ok(&[
            "extract",
            path_str(&arc),
            "--range",
            "5:20",
            "-o",
            path_str(&range_out),
        ]);
        let text = fs::read_to_string(&range_out).unwrap();
        assert_eq!(text.len(), 20, "{text:?}");
        assert!(text.chars().all(|c| "01X".contains(c)), "{text:?}");

        // A clean scrub exits 0.
        let msg = run_ok(&["scrub", path_str(&arc)]);
        assert!(msg.contains("0 lost"), "{msg}");
    }

    #[test]
    fn scrub_repairs_rot_and_check_reports_it() {
        let dir = tmpdir("archive_scrub");
        let (frame, frame_bytes) = small_v3_frame(&dir);
        let arc = dir.join("s.9ca");
        let _ = fs::remove_file(&arc);
        run_ok(&["archive", path_str(&frame), "-o", path_str(&arc)]);

        // Rot one byte of the first stored blob (past the 12-byte store
        // header, inside the CRC-covered segment header).
        let mut store = fs::read(&arc).unwrap();
        store[16] ^= 0xFF;
        fs::write(&arc, &store).unwrap();

        // --check reports without repairing: exit 5.
        let err = run_err(&["scrub", path_str(&arc), "--check"]);
        assert!(matches!(err, CliError::PartialRecovery(_)), "{err:?}");
        assert_eq!(err.exit_code(), 5);

        // Repair mode rebuilds from parity and exits 0 with a report.
        let msg = run_ok(&["scrub", path_str(&arc)]);
        assert!(msg.contains("1 repaired"), "{msg}");
        assert!(msg.contains("repaired bit-exact"), "{msg}");

        // The store is healed: extraction is byte-exact again.
        let back = dir.join("healed.9cf");
        run_ok(&["extract", path_str(&arc), "-o", path_str(&back)]);
        assert_eq!(fs::read(&back).unwrap(), frame_bytes);
    }

    #[test]
    fn info_on_binary_junk_is_a_typed_usage_error() {
        let dir = tmpdir("info_junk");
        let junk = dir.join("junk.bin");
        fs::write(&junk, [0x7Fu8, 0x45, 0x4C, 0x46, 0x02, 0x01]).unwrap();
        let err = run_err(&["info", path_str(&junk)]);
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("not a 9CSF/9CA container"), "{msg}");
        assert!(msg.contains("7f"), "{msg}");
        // Pointing an archive verb at junk is the same typed rejection.
        let err = run_err(&["scrub", path_str(&junk)]);
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn decode_limit_flags_reject_over_budget_inputs_with_exit_3() {
        let dir = tmpdir("limit_flags");
        let (frame, _) = small_v3_frame(&dir);
        let arc = dir.join("l.9ca");
        let _ = fs::remove_file(&arc);
        run_ok(&["archive", path_str(&frame), "-o", path_str(&arc)]);

        // The frame has several segments; a ceiling of 1 is a typed
        // failure (exit 3) on both the frame and the archive paths.
        let err = run_err(&[
            "decompress",
            path_str(&frame),
            "-o",
            path_str(&dir.join("out.cubes")),
            "--max-segments",
            "1",
        ]);
        assert!(matches!(err, CliError::Failed(_)), "{err:?}");
        assert_eq!(err.exit_code(), 3);
        let err = run_err(&["info", path_str(&arc), "--max-segments", "1"]);
        assert!(matches!(err, CliError::Failed(_)), "{err:?}");
        assert_eq!(err.exit_code(), 3);
        let err = run_err(&[
            "extract",
            path_str(&arc),
            "-o",
            path_str(&dir.join("x.9cf")),
            "--max-total-alloc",
            "4",
        ]);
        assert!(matches!(err, CliError::Failed(_)), "{err:?}");
        // Flag validation.
        assert!(matches!(
            run_err(&["info", "x", "--max-segments", "0"]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn verify_flag_is_frames_only() {
        let dir = tmpdir("verify_te");
        let cubes = dir.join("v.cubes");
        run_ok(&["generate", "custom:4,16,60", "-o", path_str(&cubes)]);
        let err = run_err(&[
            "compress",
            path_str(&cubes),
            "-o",
            path_str(&dir.join("v.te")),
            "--verify",
        ]);
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }
}
