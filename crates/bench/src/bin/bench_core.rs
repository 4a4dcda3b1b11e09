//! Regenerates `results/BENCH_core.json`: encode throughput of the scalar
//! reference vs the word-parallel kernels on the IBM-profile streams.
//!
//! ```text
//! cargo run -p ninec-bench --release --bin bench_core [-- <out.json>]
//! ```
//!
//! CKT1 is the 16 Mbit stream the word-kernel speedup target is measured
//! on; a scaled CKT2 and a K-sweep on CKT1 give context. Run in `--release`
//! — debug-build numbers are meaningless.

use ninec_bench::datasets::ibm_datasets;
use ninec_bench::throughput::{
    bench_core_json, measure, measure_ecc_repair, measure_engine_scaling, measure_obs_overhead,
    measure_plan_decode, measure_trace_overhead, EccRepairRow, EngineScalingRow, ObsOverheadRow,
    PlanDecodeRow, ThroughputRow, TraceOverheadRow,
};
use std::fs;
use std::path::PathBuf;

fn main() {
    let out: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_core.json".to_owned())
        .into();
    let ibm = ibm_datasets();
    let mut rows: Vec<ThroughputRow> = Vec::new();
    // The headline number: K-sweep on the 16 Mbit CKT1 stream.
    let ckt1 = ibm[0].cubes.as_stream();
    for k in [8usize, 16, 32, 64] {
        let row = measure(&ibm[0].name, ckt1, k, 3);
        eprintln!(
            "{} K={:<3} {:>8.1} -> {:>8.1} Mbit/s ({:.2}x)",
            row.circuit,
            row.k,
            row.scalar_mbit_s,
            row.word_mbit_s,
            row.speedup()
        );
        rows.push(row);
    }
    // CKT2 (4 Mbit) at the Table VIII block sizes, for context.
    let ckt2 = ibm[1].cubes.as_stream();
    for k in [16usize, 64] {
        let row = measure(&ibm[1].name, ckt2, k, 3);
        eprintln!(
            "{} K={:<3} {:>8.1} -> {:>8.1} Mbit/s ({:.2}x)",
            row.circuit,
            row.k,
            row.scalar_mbit_s,
            row.word_mbit_s,
            row.speedup()
        );
        rows.push(row);
    }
    // Telemetry cost on the headline stream: same word-parallel encode with
    // the obs runtime switch on vs off (the acceptance bar for the
    // batched-publishing design is an obs-on delta within noise).
    let mut obs_rows: Vec<ObsOverheadRow> = Vec::new();
    for k in [8usize, 64] {
        let row = measure_obs_overhead(&ibm[0].name, ckt1, k, 3);
        eprintln!(
            "{} K={:<3} obs on/off {:>8.1} / {:>8.1} Mbit/s ({:+.2}% overhead)",
            row.circuit,
            row.k,
            row.on_mbit_s,
            row.off_mbit_s,
            row.overhead_pct()
        );
        obs_rows.push(row);
    }
    // Flight-recorder cost on the decode path: the same frame decode with
    // the trace kill switch on vs off. The recorder is always-on by
    // default, so this is a hard gate — per-segment span bookkeeping must
    // stay within 5% of the untraced decode (large segments amortize the
    // per-event cost; overhead beyond that means someone put a probe in a
    // hot loop).
    let mut trace_rows: Vec<TraceOverheadRow> = Vec::new();
    for threads in [1usize, 8] {
        let row = measure_trace_overhead(&ibm[0].name, ckt1, 8, threads, 1 << 20, 3);
        eprintln!(
            "{} K=8 threads={:<2} trace on/off {:>8.1} / {:>8.1} Mbit/s ({:+.2}% overhead)",
            row.circuit,
            row.threads,
            row.on_mbit_s,
            row.off_mbit_s,
            row.overhead_pct()
        );
        assert!(
            !row.compiled || row.overhead_pct() <= 5.0,
            "flight recorder costs {:.2}% on decode (threads={}) — over the 5% budget",
            row.overhead_pct(),
            row.threads
        );
        trace_rows.push(row);
    }
    // Sharded-engine scaling: frame encode/decode of the 16 Mbit CKT1
    // stream at 1/2/4/8 worker threads. Frames are asserted byte-identical
    // to the serial engine at every thread count; the JSON records the
    // machine's available parallelism so the speedups can be judged in
    // context (a 1-core box necessarily measures ~1.0x at every count).
    let mut scaling_rows: Vec<EngineScalingRow> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let row = measure_engine_scaling(&ibm[0].name, ckt1, 8, threads, 1 << 20, 3);
        eprintln!(
            "{} K=8 threads={:<2} encode {:>8.1} Mbit/s, decode {:>8.1} Mbit/s",
            row.circuit, row.threads, row.encode_mbit_s, row.decode_mbit_s
        );
        scaling_rows.push(row);
    }
    // Erasure-coding cost: v3 parity encode overhead vs plain v2, and the
    // repair-ladder decode throughput on a frame with one corrupted data
    // segment (bit-exactness asserted inside the measurement). g=4,r=1 is
    // the README/CLI example geometry; the 8-thread row shows the repair
    // path scales with the pool like strict decode does.
    let mut ecc_rows: Vec<EccRepairRow> = Vec::new();
    for threads in [1usize, 8] {
        let row = measure_ecc_repair(&ibm[0].name, ckt1, 8, threads, 1 << 20, (4, 1), 3);
        eprintln!(
            "{} K=8 threads={:<2} parity 4:1 encode {:>8.1} Mbit/s ({:+.1}% vs v2, +{:.2}% bytes), repair {:>8.1} Mbit/s",
            row.circuit,
            row.threads,
            row.parity_encode_mbit_s,
            -row.encode_overhead_pct(),
            row.size_overhead_pct(),
            row.repair_decode_mbit_s
        );
        ecc_rows.push(row);
    }
    // Plan-then-execute pipeline: the same damaged-v3 repair driven off a
    // single FramePlan. The measurement asserts the scan-pass counter
    // reads 1 for the whole strict→repair→salvage ladder and that the
    // plan-driven repair is bit-exact.
    let mut plan_rows: Vec<PlanDecodeRow> = Vec::new();
    for threads in [1usize, 8] {
        let row = measure_plan_decode(&ibm[0].name, ckt1, 8, threads, 1 << 20, (4, 1), 5);
        eprintln!(
            "{} K=8 threads={:<2} parity 4:1 ladder scans {}, repair {:>8.1} Mbit/s",
            row.circuit, row.threads, row.plan_scan_passes, row.plan_repair_mbit_s
        );
        plan_rows.push(row);
    }
    // Fault-tolerance counters: corrupt one payload byte of a CKT1 frame,
    // watch strict decode reject it (crc_failures), salvage it
    // (salvaged_segments), and reject a decode under a hostile limit
    // (limit_rejections) — so the recovery counters in the committed OBS
    // snapshot are nonzero and tracked. `worker_panics` intentionally stays
    // 0 here: the failpoint hooks that can force one are a test-only cargo
    // feature (`failpoints`) that this bin does not enable.
    {
        use ninec::engine::frame::{HEADER_BYTES, SEGMENT_HEADER_BYTES};
        use ninec::engine::{DecodeLimits, Engine};
        use ninec::session::DecodeSession;
        let engine = Engine::builder().threads(1).segment_bits(1 << 20).build();
        let mut frame = engine.encode_frame(8, ckt1).expect("encode CKT1 frame");
        // Limit rejection first, on the intact frame: segment CRCs are
        // verified before the limit check, so a corrupt segment would
        // surface as BadCrc instead.
        let hostile = DecodeLimits {
            max_segment_trits: 1,
            ..DecodeLimits::default()
        };
        assert!(
            DecodeSession::new()
                .limits(hostile)
                .decode_frame(&frame, ninec::Policy::Strict)
                .is_err(),
            "hostile limit must reject the frame"
        );
        frame[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55; // first payload byte
        assert!(
            DecodeSession::new()
                .decode_frame(&frame, ninec::Policy::Strict)
                .is_err(),
            "strict decode of a corrupted frame must fail"
        );
        let report = DecodeSession::new()
            .decode_frame(&frame, ninec::Policy::Salvage)
            .expect("salvage decode")
            .report
            .expect("damaged frame advances past strict");
        eprintln!(
            "{} salvage: {}/{} segments recovered, {} damaged",
            ibm[0].name,
            report.recovered_segments,
            report.total_segments,
            report.damaged.len()
        );
        // Repair-failure counter: damage beyond the parity budget (two
        // segments of the same g=4,r=1 group) makes the ladder fall
        // through to salvage, so `ninec.ecc.repair_failures` is nonzero
        // and tracked in the committed OBS snapshot. The small stream
        // keeps this cheap; 8 segments at g=4 give 2 interleaved groups.
        let small = ninec_testdata::gen::SyntheticProfile::new("obs-ecc", 16, 512, 0.85)
            .generate(1)
            .as_stream()
            .clone();
        let protected = Engine::builder()
            .threads(1)
            .segment_bits(1 << 10)
            .parity(4, 1)
            .build();
        let mut v3 = protected.encode_frame(8, &small).expect("encode v3");
        let plan = protected.build_plan(&v3).expect("plan own frame");
        let data: Vec<_> = plan
            .entries()
            .iter()
            .filter_map(|e| match e {
                ninec::PlanEntry::Data { byte_range, .. } => Some(byte_range.clone()),
                _ => None,
            })
            .collect();
        let groups = plan.groups();
        // Two data segments of group 0: indices 0 and `groups`.
        for idx in [0, groups] {
            v3[data[idx].start + SEGMENT_HEADER_BYTES] ^= 0x55;
        }
        let report = protected
            .build_plan(&v3)
            .and_then(|plan| protected.execute_plan(&plan, ninec::Policy::Repair))
            .expect("file headers intact");
        assert!(
            !report.is_full_recovery(),
            "over-budget damage must not fully repair"
        );
    }
    if let Some(dir) = out.parent() {
        fs::create_dir_all(dir).expect("create results dir");
    }
    let doc = bench_core_json(
        &rows,
        &obs_rows,
        &scaling_rows,
        &ecc_rows,
        &plan_rows,
        &trace_rows,
    );
    let text = serde_json::to_string_pretty(&doc).expect("serialize results");
    fs::write(&out, text + "\n").expect("write results");
    println!("wrote {}", out.display());
    // Dump the live registry — populated by every encode this run timed —
    // next to the throughput numbers, so the metric set backing the
    // paper-table provenance notes is a tracked artifact.
    let obs_out = out.with_file_name("OBS_core.json");
    fs::write(&obs_out, ninec_obs::snapshot().render_json() + "\n").expect("write obs snapshot");
    println!("wrote {}", obs_out.display());
}
