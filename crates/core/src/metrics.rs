//! Publishing helpers for the codec's telemetry.
//!
//! Every metric the `ninec` crate emits into the [`ninec_obs::global()`]
//! registry is an entry of the typed [`ninec_obs::catalogue`], which
//! resolves each cell once, on its first publish; readers take a name
//! from the same entry (`catalogue::FRAME_SCAN_PASSES.name()`).
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
        assert!(snap.counter(catalogue::ENCODE_BLOCKS.name()).unwrap_or(0) >= 6);
        assert!(snap
            .histogram(catalogue::ENCODE_BLOCK_BITS.name())
            .is_some());
    }
}
