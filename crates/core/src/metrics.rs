//! Metric names and publishing helpers for the codec's telemetry.
//!
//! All metric names the `ninec` crate emits into the
//! [`ninec_obs::global()`] registry are defined here as constants so
//! exporter consumers (CLI `--stats`, the `benchmark/` per-layer run,
//! `tests/plan_scan_passes.rs`) can reference them without string drift.
//!
//! Publishing is *batched*: the streaming encoder/decoder tally into
//! plain local structs on the hot path and flush once per run through
//! [`publish_encode`], [`publish_count`] and the histogram helpers here.
//! Every helper is guarded by [`ninec_obs::runtime_enabled`], so with
//! runtime telemetry off nothing reaches the registry.

use crate::code::{CodeTable, ALL_CASES};
use crate::encode::EncodeStats;

/// Counter: total `K`-bit blocks encoded.
pub const ENCODE_BLOCKS: &str = "ninec.encode.blocks";
/// Counter: total encoded bits `|T_E|` emitted.
pub const ENCODE_BITS: &str = "ninec.encode.encoded_bits";
/// Counter: total source symbols `|T_D|` consumed.
pub const ENCODE_SOURCE_BITS: &str = "ninec.encode.source_bits";
/// Counter: don't-cares that survived into verbatim payload.
pub const ENCODE_LEFTOVER_X: &str = "ninec.encode.leftover_x";
/// Counter name for one case's hits: `ninec.encode.case.C1` … `.C9`.
#[must_use]
pub fn case_counter_name(index: usize) -> String {
    format!("ninec.encode.case.C{}", index + 1)
}
/// Histogram: per-block encoded size (codeword + payload) in bits.
pub const ENCODE_BLOCK_BITS: &str = "ninec.encode.block_bits";
/// Histogram: leftover-X density per run, in percent of `|T_D|`.
pub const ENCODE_LX_PCT: &str = "ninec.encode.leftover_x_pct";
/// Histogram: encoder throughput per run, in Mbit/s of source stream.
pub const ENCODE_THROUGHPUT: &str = "ninec.encode.throughput_mbit_s";

/// Counter: jobs completed by executor workers — segment encodes, decodes,
/// repair and salvage jobs — at every thread count, the caller included.
/// Each worker flushes its tally once, at exit.
pub const ENGINE_SEGMENTS: &str = "ninec.engine.segments";
/// Histogram: wall-clock nanoseconds spent encoding one segment.
pub const ENGINE_SEG_ENCODE_NS: &str = "ninec.engine.segment.encode_ns";
/// Histogram: wall-clock nanoseconds spent decoding one segment.
pub const ENGINE_SEG_DECODE_NS: &str = "ninec.engine.segment.decode_ns";
/// Counter name for one executor worker's cumulative job run time:
/// `ninec.engine.worker.<i>.busy_ns`.
#[must_use]
pub fn worker_busy_ns_name(worker: usize) -> String {
    format!("ninec.engine.worker.{worker}.busy_ns")
}

/// Flushes one executor worker's cumulative wall-clock job time — the
/// Fig 4c per-decoder load-imbalance number as an aggregate; the flight
/// recorder holds the per-job timeline. Batched once at worker exit.
pub fn publish_worker_busy(worker: usize, nanos: u64) {
    if !ninec_obs::runtime_enabled() || nanos == 0 {
        return;
    }
    ninec_obs::global()
        .counter(&worker_busy_ns_name(worker))
        .add(nanos);
}

/// Records one segment's encode latency in nanoseconds.
pub fn publish_segment_encode(nanos: u64) {
    if !ninec_obs::runtime_enabled() {
        return;
    }
    ninec_obs::histogram(ENGINE_SEG_ENCODE_NS).record(nanos);
}

/// Records one segment's decode latency in nanoseconds.
pub fn publish_segment_decode(nanos: u64) {
    if !ninec_obs::runtime_enabled() {
        return;
    }
    ninec_obs::histogram(ENGINE_SEG_DECODE_NS).record(nanos);
}

/// Counter: 9CSF CRC mismatches (file-header or segment) seen on a
/// frame's main parse or scan walk. Resync probes never count: they are
/// expected to fail.
pub const FRAME_CRC_FAILURES: &str = "ninec.frame.crc_failures";
/// Counter: full header/CRC scan passes over a frame body, one per
/// [`crate::engine::FramePlan`] build. One plan-then-execute decode —
/// strict, repair or salvage, or the whole ladder sharing one plan —
/// costs exactly one pass; the pre-plan ladder cost up to three.
pub const FRAME_SCAN_PASSES: &str = "ninec.frame.scan_passes";
/// Counter: frames or segments rejected by a
/// [`crate::engine::DecodeLimits`] ceiling before any allocation happened.
pub const FRAME_LIMIT_REJECTIONS: &str = "ninec.frame.limit_rejections";
/// Counter: byte positions probed for the next valid segment after
/// damage (plan walk and streaming reader).
pub const FRAME_RESYNC_PROBES: &str = "ninec.frame.resync_probes";
/// Counter: bytes those probes folded through the CRC kernel, prefix
/// index growth included — linear in the damaged span, not in the
/// payload sizes the probed headers claim.
pub const FRAME_RESYNC_CRC_BYTES: &str = "ninec.frame.resync_crc_bytes";
/// Counter: segments recovered byte-identically by salvage-mode decode
/// from frames that contained damage, once per salvage run (clean
/// frames record nothing).
pub const ENGINE_SALVAGED_SEGMENTS: &str = "ninec.engine.salvaged_segments";
/// Counter: decode worker panics caught by the panic-isolated pool.
pub const ENGINE_WORKER_PANICS: &str = "ninec.engine.worker_panics";
/// Counter: segment jobs abandoned because the caller's
/// [`crate::CancelToken`] tripped (cancel or deadline) mid-decode.
pub const ENGINE_CANCELLED_JOBS: &str = "ninec.engine.cancelled_jobs";

/// Adds `n` to the single counter `name` — the one batched flush of a
/// run's tally. Skipped while runtime telemetry is off, and when
/// `n == 0`, so a run that saw nothing registers nothing.
pub fn publish_count(name: &str, n: u64) {
    if !ninec_obs::runtime_enabled() || n == 0 {
        return;
    }
    ninec_obs::global().counter(name).add(n);
}

/// Records one resynchronisation: positions probed and bytes
/// checksummed while probing.
pub fn publish_resync(probes: usize, crc_bytes: usize) {
    if !ninec_obs::runtime_enabled() || probes == 0 {
        return;
    }
    let registry = ninec_obs::global();
    registry.counter(FRAME_RESYNC_PROBES).add(probes as u64);
    registry
        .counter(FRAME_RESYNC_CRC_BYTES)
        .add(crc_bytes as u64);
}

/// Counter: damaged segments rebuilt byte-exactly by GF(256) erasure
/// repair (frame v3 parity groups) and accepted after re-CRC, once per
/// repair run (nothing recorded when no repair happened).
pub const ECC_REPAIRED_SEGMENTS: &str = "ninec.ecc.repaired_segments";
/// Counter: parity bits emitted by v3 frame encodes (parity segment
/// headers + shard payloads, in bits).
pub const ECC_PARITY_BITS: &str = "ninec.ecc.parity_bits";
/// Counter: damaged segments the repair rung could *not* reconstruct
/// (over-budget erasures, dead parity, failed re-CRC) — these fell
/// through to salvage X-erasure.
pub const ECC_REPAIR_FAILURES: &str = "ninec.ecc.repair_failures";

/// Counter: segments whose CRC (and, where grouped, parity) the archive
/// scrubber walked.
pub const ARCHIVE_SCRUBBED_SEGMENTS: &str = "ninec.archive.scrubbed_segments";
/// Counter: rotted archive segments rebuilt byte-exactly from parity and
/// rewritten in place by the scrubber.
pub const ARCHIVE_REPAIRED_SEGMENTS: &str = "ninec.archive.repaired_segments";
/// Counter: archive segments beyond the parity budget — unreadable and
/// unrecoverable.
pub const ARCHIVE_LOST_SEGMENTS: &str = "ninec.archive.lost_segments";
/// Counter: segment appends satisfied by the content-addressed dedup
/// table instead of new data-file bytes, once per archive append.
pub const ARCHIVE_DEDUP_HITS: &str = "ninec.archive.dedup_hits";

/// Flushes one scrub pass's tallies (segments walked / repaired / lost)
/// into the global registry — one batched flush per scrub.
pub fn publish_archive_scrub(scrubbed: u64, repaired: u64, lost: u64) {
    if !ninec_obs::runtime_enabled() {
        return;
    }
    let reg = ninec_obs::global();
    reg.counter(ARCHIVE_SCRUBBED_SEGMENTS).add(scrubbed);
    if repaired > 0 {
        reg.counter(ARCHIVE_REPAIRED_SEGMENTS).add(repaired);
    }
    if lost > 0 {
        reg.counter(ARCHIVE_LOST_SEGMENTS).add(lost);
    }
}

/// Counter: decode runs completed.
pub const DECODE_RUNS: &str = "ninec.decode.runs";
/// Counter: blocks decoded.
pub const DECODE_BLOCKS: &str = "ninec.decode.blocks";
/// Counter: compressed bits consumed.
pub const DECODE_BITS_IN: &str = "ninec.decode.bits_in";
/// Counter: symbols emitted (clipped to `source_len`).
pub const DECODE_SYMBOLS_OUT: &str = "ninec.decode.symbols_out";

/// Flushes one encoding run's totals into the global registry.
///
/// `table`/`k` reconstruct the per-block size distribution from the case
/// counts (`N_i` samples of `|C_i| + payload_i(K)` each), so the hot loop
/// never touches a histogram. No-op while runtime telemetry is off.
pub fn publish_encode(stats: &EncodeStats, source_len: usize, table: &CodeTable, k: usize) {
    if !ninec_obs::runtime_enabled() {
        return;
    }
    let reg = ninec_obs::global();
    reg.counter(ENCODE_BLOCKS).add(stats.blocks);
    reg.counter(ENCODE_BITS).add(stats.encoded_bits);
    reg.counter(ENCODE_SOURCE_BITS).add(source_len as u64);
    reg.counter(ENCODE_LEFTOVER_X).add(stats.leftover_x);
    for case in ALL_CASES {
        let n = stats.case_counts[case.index()];
        if n > 0 {
            reg.counter(&case_counter_name(case.index())).add(n);
        }
    }
    let block_bits = reg.histogram(ENCODE_BLOCK_BITS);
    for case in ALL_CASES {
        let n = stats.case_counts[case.index()];
        if n > 0 {
            block_bits.record_n(table.block_bits(case, k) as u64, n);
        }
    }
    if source_len > 0 {
        let lx_pct = stats.leftover_x as f64 / source_len as f64 * 100.0;
        reg.histogram(ENCODE_LX_PCT).record(lx_pct.round() as u64);
    }
}

/// Records one run's encoder throughput (`source_bits` over `secs`).
///
/// No-op unless runtime-enabled or when the measurement is degenerate.
pub fn publish_encode_throughput(source_bits: usize, secs: f64) {
    if !ninec_obs::runtime_enabled() || secs <= 0.0 || source_bits == 0 {
        return;
    }
    let mbit_s = source_bits as f64 / secs / 1e6;
    ninec_obs::histogram(ENCODE_THROUGHPUT).record(mbit_s.round() as u64);
}

/// Flushes one decode run's totals into the global registry.
///
/// No-op while runtime telemetry is off.
pub fn publish_decode(blocks: u64, bits_in: u64, symbols_out: u64) {
    if !ninec_obs::runtime_enabled() {
        return;
    }
    let reg = ninec_obs::global();
    reg.counter(DECODE_RUNS).inc();
    reg.counter(DECODE_BLOCKS).add(blocks);
    reg.counter(DECODE_BITS_IN).add(bits_in);
    reg.counter(DECODE_SYMBOLS_OUT).add(symbols_out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_counter_names_are_c1_to_c9() {
        assert_eq!(case_counter_name(0), "ninec.encode.case.C1");
        assert_eq!(case_counter_name(8), "ninec.encode.case.C9");
    }

    #[test]
    fn worker_counter_names_are_indexed() {
        assert_eq!(worker_busy_ns_name(0), "ninec.engine.worker.0.busy_ns");
        assert_eq!(worker_busy_ns_name(7), "ninec.engine.worker.7.busy_ns");
    }

    #[test]
    fn publish_encode_matches_stats() {
        // Exercise the publishing path; exact-count assertions live in the
        // isolated differential suite (tests/obs_differential.rs at the
        // workspace root) because the global registry is process-wide.
        let table = CodeTable::paper();
        let stats = EncodeStats {
            case_counts: [3, 0, 0, 0, 1, 0, 0, 0, 2],
            blocks: 6,
            encoded_bits: 40,
            leftover_x: 4,
        };
        publish_encode(&stats, 48, &table, 8);
        let snap = ninec_obs::snapshot();
        assert!(snap.counter(ENCODE_BLOCKS).unwrap_or(0) >= 6);
        assert!(snap.histogram(ENCODE_BLOCK_BITS).is_some());
    }
}
