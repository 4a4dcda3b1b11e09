//! The flight recorder's decode budget: the same frame decode timed with
//! the trace kill switch on and off, asserted within 5% at 1 and 8
//! threads.
//!
//! ```text
//! cargo run -p ninec-bench --release --bin bench_core
//! ```
//!
//! The recorder is always-on by default, so this is a hard gate — per-
//! segment span bookkeeping must stay within 5% of the untraced decode
//! (large segments amortize the per-event cost; overhead beyond that
//! means someone put a probe in a hot loop). Run in `--release` —
//! debug-build numbers are meaningless. The bin prints its rows and
//! writes no file; current speed numbers, with their spread, come from
//! `benchmark/`.

use ninec_bench::datasets::ibm_datasets;
use ninec_testdata::trit::TritVec;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`iters` wall-clock seconds of `f` (after one warmup run).
fn best_secs<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Flight-recorder cost of one `(circuit, K, threads)` frame decode:
/// the same decode timed with the trace kill switch on and off.
///
/// The recorder is always-on by default, so this row is the acceptance
/// bar that keeps it honest: per-segment span bookkeeping must stay
/// within a few percent of the untraced decode.
#[derive(Debug, Clone)]
pub struct TraceOverheadRow {
    /// Circuit / stream name.
    pub circuit: String,
    /// Block size `K`.
    pub k: usize,
    /// Worker-thread count for this row.
    pub threads: usize,
    /// Frame-decode throughput with the recorder capturing (Mbit/s).
    pub on_mbit_s: f64,
    /// Frame-decode throughput with the recorder switched off (Mbit/s).
    pub off_mbit_s: f64,
}

impl TraceOverheadRow {
    /// Relative slowdown of recorder-on vs recorder-off, in percent
    /// (negative means recorder-on happened to win — i.e. the delta is
    /// below measurement noise).
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        (1.0 - self.on_mbit_s / self.off_mbit_s) * 100.0
    }
}

/// Times a frame decode with the flight recorder enabled vs disabled.
///
/// Restores the recorder switch and drains the rings before returning,
/// so the measurement leaves no trace garbage behind.
///
/// # Panics
///
/// Panics if `k` is invalid or the frame fails to encode/decode.
pub fn measure_trace_overhead(
    circuit: &str,
    stream: &TritVec,
    k: usize,
    threads: usize,
    segment_bits: usize,
    iters: usize,
) -> TraceOverheadRow {
    let engine = ninec::engine::Engine::builder()
        .threads(threads)
        .segment_bits(segment_bits)
        .build();
    let frame = engine.encode_frame(k, stream).expect("frame encodes");
    let prev = ninec_obs::trace_enabled();
    // Interleave the on/off runs (off, on, off, on, …) so slow drift —
    // cache warm-up, frequency scaling — cancels instead of landing
    // entirely on one side; keep the best of each.
    let mut off_secs = f64::INFINITY;
    let mut on_secs = f64::INFINITY;
    for _ in 0..iters.max(1) {
        ninec_obs::set_trace_enabled(false);
        off_secs = off_secs.min(best_secs(1, || {
            black_box(
                engine
                    .decode_frame(black_box(&frame))
                    .expect("decodes")
                    .len(),
            );
        }));
        ninec_obs::set_trace_enabled(true);
        on_secs = on_secs.min(best_secs(1, || {
            black_box(
                engine
                    .decode_frame(black_box(&frame))
                    .expect("decodes")
                    .len(),
            );
        }));
    }
    ninec_obs::set_trace_enabled(prev);
    let _ = ninec_obs::take_trace();
    let bits = stream.len() as f64;
    TraceOverheadRow {
        circuit: circuit.to_owned(),
        k,
        threads,
        on_mbit_s: bits / on_secs / 1e6,
        off_mbit_s: bits / off_secs / 1e6,
    }
}

fn main() {
    let ibm = ibm_datasets();
    let ckt1 = ibm[0].cubes.as_stream();
    for threads in [1usize, 8] {
        let row = measure_trace_overhead(&ibm[0].name, ckt1, 8, threads, 1 << 20, 3);
        eprintln!(
            "{} K={} threads={:<2} trace on/off {:>8.1} / {:>8.1} Mbit/s ({:+.2}% overhead)",
            row.circuit,
            row.k,
            row.threads,
            row.on_mbit_s,
            row.off_mbit_s,
            row.overhead_pct()
        );
        assert!(
            row.overhead_pct() <= 5.0,
            "flight recorder costs {:.2}% on decode (threads={}) — over the 5% budget",
            row.overhead_pct(),
            row.threads
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninec_bench::datasets::ibm_datasets_scaled;

    #[test]
    fn trace_overhead_row_is_finite_and_restores_switch() {
        let ibm = ibm_datasets_scaled(16);
        let stream = ibm[0].cubes.as_stream();
        let before = ninec_obs::trace_enabled();
        let row = measure_trace_overhead("CKT1/16", stream, 8, 1, 4096, 1);
        assert_eq!(ninec_obs::trace_enabled(), before);
        assert!(row.on_mbit_s.is_finite() && row.on_mbit_s > 0.0);
        assert!(row.off_mbit_s.is_finite() && row.off_mbit_s > 0.0);
        assert!(row.overhead_pct().is_finite());
    }
}
