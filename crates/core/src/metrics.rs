//! Metric names and publishing helpers for the codec's telemetry.
//!
//! Every metric the `ninec` crate emits into the [`ninec_obs::global()`]
//! registry is an entry of the typed [`ninec_obs::catalogue`], which
//! resolves each cell once, on its first publish. The name constants
//! here are those entries' names, kept so exporter consumers (CLI
//! `--stats`, the `benchmark/` per-layer run,
//! `tests/plan_scan_passes.rs`) can read metrics by name without string
//! drift.
//!
//! Publishing is *once per call*: the streaming encoder/decoder tally
//! into plain local structs on the hot path, segment jobs hand their
//! tallies and latency samples back with their results, and the call
//! publishes the sums after its jobs have joined — counters through
//! [`publish_count`] and the tally types, per-segment histogram samples
//! as one [`SampleBatch`]. Every helper is guarded by
//! [`ninec_obs::runtime_enabled`], so with runtime telemetry off nothing
//! reaches the registry.

use crate::code::{CodeTable, ALL_CASES};
use crate::encode::EncodeStats;
use ninec_obs::catalogue::{self, CounterDef, HistogramDef};
use ninec_obs::SampleBatch;

/// Counter: total `K`-bit blocks encoded.
pub const ENCODE_BLOCKS: &str = catalogue::ENCODE_BLOCKS.name();
/// Counter: total encoded bits `|T_E|` emitted.
pub const ENCODE_BITS: &str = catalogue::ENCODE_BITS.name();
/// Counter: total source symbols `|T_D|` consumed.
pub const ENCODE_SOURCE_BITS: &str = catalogue::ENCODE_SOURCE_BITS.name();
/// Counter: don't-cares that survived into verbatim payload.
pub const ENCODE_LEFTOVER_X: &str = catalogue::ENCODE_LEFTOVER_X.name();
/// Counter name for one case's hits: `ninec.encode.case.C1` … `.C9`.
#[must_use]
pub fn case_counter_name(index: usize) -> String {
    catalogue::ENCODE_CASES[index].name().to_owned()
}
/// Histogram: per-block encoded size (codeword + payload) in bits.
pub const ENCODE_BLOCK_BITS: &str = catalogue::ENCODE_BLOCK_BITS.name();
/// Histogram: leftover-X density per run, in percent of `|T_D|`.
pub const ENCODE_LX_PCT: &str = catalogue::ENCODE_LX_PCT.name();
/// Histogram: encoder throughput per run, in Mbit/s of source stream.
pub const ENCODE_THROUGHPUT: &str = catalogue::ENCODE_THROUGHPUT.name();

/// Counter: jobs completed by executor workers — segment encodes, decodes,
/// repair and salvage jobs — at every thread count, the caller included.
/// Each worker flushes its tally once, at the end of its job loop.
pub const ENGINE_SEGMENTS: &str = catalogue::ENGINE_SEGMENTS.name();
/// Histogram: wall-clock nanoseconds spent encoding one segment.
pub const ENGINE_SEG_ENCODE_NS: &str = catalogue::ENGINE_SEG_ENCODE_NS.name();
/// Histogram: wall-clock nanoseconds spent decoding one segment.
pub const ENGINE_SEG_DECODE_NS: &str = catalogue::ENGINE_SEG_DECODE_NS.name();
/// Counter name for one executor worker's cumulative job run time:
/// `ninec.engine.worker.<i>.busy_ns`.
#[must_use]
pub fn worker_busy_ns_name(worker: usize) -> String {
    catalogue::worker_busy_ns_name(worker)
}

/// Flushes one executor worker's tally for one executor run: the jobs it
/// completed and its cumulative wall-clock job time — the Fig 4c
/// per-decoder load-imbalance number as an aggregate; the flight
/// recorder holds the per-job timeline.
pub(crate) fn publish_worker(worker: usize, jobs: u64, busy_nanos: u64) {
    if !ninec_obs::runtime_enabled() {
        return;
    }
    if jobs > 0 {
        catalogue::ENGINE_SEGMENTS.add(jobs);
    }
    if busy_nanos > 0 {
        catalogue::worker_busy_ns(worker).add(busy_nanos);
    }
}

/// Records a call's per-segment samples into `hist` in one batch;
/// registers nothing for an empty batch.
pub(crate) fn publish_samples(hist: HistogramDef, samples: &SampleBatch) {
    if ninec_obs::runtime_enabled() {
        hist.record_batch(samples);
    }
}

/// Counter: 9CSF CRC mismatches (file-header or segment) seen on a
/// frame's main parse or scan walk. Resync probes never count: they are
/// expected to fail.
pub const FRAME_CRC_FAILURES: &str = catalogue::FRAME_CRC_FAILURES.name();
/// Counter: full header/CRC scan passes over a frame body, one per
/// [`crate::engine::FramePlan`] build. One plan-then-execute decode —
/// strict, repair or salvage, or the whole ladder sharing one plan —
/// costs exactly one pass; the pre-plan ladder cost up to three.
pub const FRAME_SCAN_PASSES: &str = catalogue::FRAME_SCAN_PASSES.name();
/// Counter: frames or segments rejected by a
/// [`crate::engine::DecodeLimits`] ceiling before any allocation happened.
pub const FRAME_LIMIT_REJECTIONS: &str = catalogue::FRAME_LIMIT_REJECTIONS.name();
/// Counter: byte positions probed for the next valid segment after
/// damage (plan walk and streaming reader).
pub const FRAME_RESYNC_PROBES: &str = catalogue::FRAME_RESYNC_PROBES.name();
/// Counter: bytes those probes folded through the CRC kernel, prefix
/// index growth included — linear in the damaged span, not in the
/// payload sizes the probed headers claim.
pub const FRAME_RESYNC_CRC_BYTES: &str = catalogue::FRAME_RESYNC_CRC_BYTES.name();
/// Counter: segments recovered byte-identically by salvage-mode decode
/// from frames that contained damage, once per salvage run (clean
/// frames record nothing).
pub const ENGINE_SALVAGED_SEGMENTS: &str = catalogue::ENGINE_SALVAGED_SEGMENTS.name();
/// Counter: decode worker panics caught by the panic-isolated pool.
pub const ENGINE_WORKER_PANICS: &str = catalogue::ENGINE_WORKER_PANICS.name();
/// Counter: segment jobs abandoned because the caller's
/// [`crate::CancelToken`] tripped (cancel or deadline) mid-decode.
pub const ENGINE_CANCELLED_JOBS: &str = catalogue::ENGINE_CANCELLED_JOBS.name();

/// Adds `n` to `counter` — the one batched flush of a run's tally.
/// Skipped while runtime telemetry is off, and when `n == 0`, so a run
/// that saw nothing registers nothing.
pub fn publish_count(counter: CounterDef, n: u64) {
    if !ninec_obs::runtime_enabled() || n == 0 {
        return;
    }
    counter.add(n);
}

/// Records one resynchronisation: positions probed and bytes
/// checksummed while probing.
pub fn publish_resync(probes: usize, crc_bytes: usize) {
    if !ninec_obs::runtime_enabled() || probes == 0 {
        return;
    }
    catalogue::FRAME_RESYNC_PROBES.add(probes as u64);
    catalogue::FRAME_RESYNC_CRC_BYTES.add(crc_bytes as u64);
}

/// Counter: damaged segments rebuilt byte-exactly by GF(256) erasure
/// repair (frame v3 parity groups) that the repair report keeps, i.e.
/// its [`DamageReason::RepairedBy`](crate::engine::DamageReason::RepairedBy)
/// entries; a rebuild that is then erased (it overshoots the header's
/// source-length total, or fails to decode) does not count. Once per
/// repair run, nothing recorded when no repair happened.
pub const ECC_REPAIRED_SEGMENTS: &str = catalogue::ECC_REPAIRED_SEGMENTS.name();
/// Counter: parity bits emitted by v3 frame encodes (parity segment
/// headers + shard payloads, in bits).
pub const ECC_PARITY_BITS: &str = catalogue::ECC_PARITY_BITS.name();
/// Counter: damaged segments the repair rung could *not* reconstruct
/// (over-budget erasures, dead parity, failed re-CRC) — these fell
/// through to salvage X-erasure.
pub const ECC_REPAIR_FAILURES: &str = catalogue::ECC_REPAIR_FAILURES.name();

/// Counter: segments whose CRC (and, where grouped, parity) the archive
/// scrubber walked.
pub const ARCHIVE_SCRUBBED_SEGMENTS: &str = catalogue::ARCHIVE_SCRUBBED_SEGMENTS.name();
/// Counter: rotted archive segments rebuilt byte-exactly from parity and
/// rewritten in place by the scrubber.
pub const ARCHIVE_REPAIRED_SEGMENTS: &str = catalogue::ARCHIVE_REPAIRED_SEGMENTS.name();
/// Counter: archive segments beyond the parity budget — unreadable and
/// unrecoverable.
pub const ARCHIVE_LOST_SEGMENTS: &str = catalogue::ARCHIVE_LOST_SEGMENTS.name();
/// Counter: segment appends satisfied by the content-addressed dedup
/// table instead of new data-file bytes, once per archive append.
pub const ARCHIVE_DEDUP_HITS: &str = catalogue::ARCHIVE_DEDUP_HITS.name();

/// Flushes one scrub pass's tallies (segments walked / repaired / lost)
/// into the global registry — one batched flush per scrub.
pub fn publish_archive_scrub(scrubbed: u64, repaired: u64, lost: u64) {
    if !ninec_obs::runtime_enabled() {
        return;
    }
    catalogue::ARCHIVE_SCRUBBED_SEGMENTS.add(scrubbed);
    if repaired > 0 {
        catalogue::ARCHIVE_REPAIRED_SEGMENTS.add(repaired);
    }
    if lost > 0 {
        catalogue::ARCHIVE_LOST_SEGMENTS.add(lost);
    }
}

/// Counter: decode runs completed.
pub const DECODE_RUNS: &str = catalogue::DECODE_RUNS.name();
/// Counter: blocks decoded.
pub const DECODE_BLOCKS: &str = catalogue::DECODE_BLOCKS.name();
/// Counter: compressed bits consumed.
pub const DECODE_BITS_IN: &str = catalogue::DECODE_BITS_IN.name();
/// Counter: symbols emitted (clipped to `source_len`).
pub const DECODE_SYMBOLS_OUT: &str = catalogue::DECODE_SYMBOLS_OUT.name();

/// The `ninec.encode.*` telemetry of one call's encoding runs, gathered
/// run by run and published once.
#[derive(Debug, Clone, Default)]
pub(crate) struct EncodeTally {
    runs: u64,
    stats: EncodeStats,
    source_bits: u64,
    block_bits: SampleBatch,
    leftover_x_pct: SampleBatch,
}

impl EncodeTally {
    /// Adds one run's totals. `table`/`k` rebuild the per-block size
    /// distribution from the case counts (`N_i` samples of
    /// `|C_i| + payload_i(K)` each), so the hot loop never touches a
    /// histogram.
    pub(crate) fn add(
        &mut self,
        stats: &EncodeStats,
        source_len: usize,
        table: &CodeTable,
        k: usize,
    ) {
        self.runs += 1;
        self.stats.merge(stats);
        self.source_bits += source_len as u64;
        for case in ALL_CASES {
            self.block_bits.add_n(
                table.block_bits(case, k) as u64,
                stats.case_counts[case.index()],
            );
        }
        if source_len > 0 {
            let lx_pct = stats.leftover_x as f64 / source_len as f64 * 100.0;
            self.leftover_x_pct.add(lx_pct.round() as u64);
        }
    }

    /// Publishes the sums; nothing when no run was added or while
    /// runtime telemetry is off.
    pub(crate) fn publish(&self) {
        if !ninec_obs::runtime_enabled() || self.runs == 0 {
            return;
        }
        catalogue::ENCODE_BLOCKS.add(self.stats.blocks);
        catalogue::ENCODE_BITS.add(self.stats.encoded_bits);
        catalogue::ENCODE_SOURCE_BITS.add(self.source_bits);
        catalogue::ENCODE_LEFTOVER_X.add(self.stats.leftover_x);
        for (counter, n) in catalogue::ENCODE_CASES.iter().zip(self.stats.case_counts) {
            if n > 0 {
                counter.add(n);
            }
        }
        // Registered even when every run was empty, as a run's own flush
        // always was.
        catalogue::ENCODE_BLOCK_BITS
            .handle()
            .record_batch(&self.block_bits);
        catalogue::ENCODE_LX_PCT.record_batch(&self.leftover_x_pct);
    }
}

/// Flushes one encoding run's totals into the global registry.
///
/// `table`/`k` reconstruct the per-block size distribution from the case
/// counts (`N_i` samples of `|C_i| + payload_i(K)` each), so the hot loop
/// never touches a histogram. No-op while runtime telemetry is off.
pub fn publish_encode(stats: &EncodeStats, source_len: usize, table: &CodeTable, k: usize) {
    let mut tally = EncodeTally::default();
    tally.add(stats, source_len, table, k);
    tally.publish();
}

/// Records one run's encoder throughput (`source_bits` over `secs`).
///
/// No-op unless runtime-enabled or when the measurement is degenerate.
pub fn publish_encode_throughput(source_bits: usize, secs: f64) {
    if !ninec_obs::runtime_enabled() || secs <= 0.0 || source_bits == 0 {
        return;
    }
    let mbit_s = source_bits as f64 / secs / 1e6;
    catalogue::ENCODE_THROUGHPUT.record(mbit_s.round() as u64);
}

/// One decoder's run: blocks decoded, compressed bits read and symbols
/// written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DecodeRun {
    pub(crate) blocks: u64,
    pub(crate) bits_in: u64,
    pub(crate) symbols_out: u64,
}

/// The `ninec.decode.*` runs and segment-decode latencies of one call,
/// gathered from its segment jobs and published once.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodeTally {
    runs: u64,
    sum: DecodeRun,
    segment_ns: SampleBatch,
}

impl DecodeTally {
    /// Adds one decoder's run; a decoder that emitted no block is no run.
    pub(crate) fn add_run(&mut self, run: DecodeRun) {
        if run.blocks > 0 {
            self.runs += 1;
            self.sum.blocks += run.blocks;
            self.sum.bits_in += run.bits_in;
            self.sum.symbols_out += run.symbols_out;
        }
    }

    /// Adds one segment decode's latency sample.
    pub(crate) fn add_latency(&mut self, nanos: u64) {
        self.segment_ns.add(nanos);
    }

    /// Publishes the sums and the latency samples; nothing for a call
    /// that decoded nothing, or while runtime telemetry is off.
    pub(crate) fn publish(&self) {
        if !ninec_obs::runtime_enabled() {
            return;
        }
        if self.runs > 0 {
            catalogue::DECODE_RUNS.add(self.runs);
            catalogue::DECODE_BLOCKS.add(self.sum.blocks);
            catalogue::DECODE_BITS_IN.add(self.sum.bits_in);
            catalogue::DECODE_SYMBOLS_OUT.add(self.sum.symbols_out);
        }
        catalogue::ENGINE_SEG_DECODE_NS.record_batch(&self.segment_ns);
    }
}

/// Flushes one decode run's totals into the global registry.
///
/// No-op while runtime telemetry is off.
pub fn publish_decode(blocks: u64, bits_in: u64, symbols_out: u64) {
    let mut tally = DecodeTally::default();
    tally.add_run(DecodeRun {
        blocks,
        bits_in,
        symbols_out,
    });
    tally.publish();
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
