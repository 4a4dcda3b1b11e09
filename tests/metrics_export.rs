//! The metrics-export golden: every name a seeded set of publishing
//! calls exports, with what each one holds, at explicit thread counts 1
//! and 3.
//!
//! The calls: `encode_frame` (v2 and v3), `Engine::encode`, a strict and
//! a repairing `DecodeSession::decode_frame` of a damaged v3 frame,
//! `decode_stream_reader`, and an archive's `append_frame`,
//! `decode_range` and `scrub`. Each exported name becomes one line: the
//! value of a counter, the sample count of a histogram, and only the
//! presence of a `*_ns` counter or a gauge, whose values are times. The
//! per-worker `ninec.engine.worker.<i>.busy_ns` counters fold into one
//! line, since which workers claim a job at 3 threads varies run to run.
//!
//! The registry is process global and the golden is the whole export,
//! so this file is its own test binary with a single test. Re-bless with
//! `OBS_BLESS=1 cargo test --test metrics_export`.

use ninec::engine::frame::SEGMENT_HEADER_BYTES;
use ninec::engine::{Archive, FrameReader, ScrubMode};
use ninec::session::DecodeSession;
use ninec::{Engine, PlanEntry, Policy};
use ninec_testdata::gen::SyntheticProfile;
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN: &str = "tests/golden/metrics_export.txt";

/// A scratch directory of this process's own.
fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ninec_metrics_export_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `clean` with the first payload byte of its first data segment
/// flipped: a v3 frame that strict decode rejects and repair rebuilds.
fn damage_first_segment(engine: &Engine, clean: &[u8]) -> Vec<u8> {
    let plan = engine.build_plan(clean).expect("clean frame plans");
    let first = plan
        .entries()
        .iter()
        .find_map(|e| match e {
            PlanEntry::Data { byte_range, .. } => Some(byte_range.start),
            _ => None,
        })
        .expect("the frame has a data segment");
    let mut bytes = clean.to_vec();
    bytes[first + SEGMENT_HEADER_BYTES] ^= 0x55;
    bytes
}

/// Runs every publishing call once at `threads`.
fn run_calls(threads: usize, dir: &std::path::Path) {
    let stream = SyntheticProfile::new("export", 40, 250, 0.8).generate(11);
    let stream = stream.as_stream();
    let v2 = Engine::builder()
        .threads(threads)
        .segment_bits(1024)
        .build();
    let v3 = Engine::builder()
        .threads(threads)
        .segment_bits(256)
        .parity(4, 1)
        .build();

    let v2_frame = v2.encode_frame(16, stream).expect("v2 frame encodes");
    let v3_frame = v3.encode_frame(8, stream).expect("v3 frame encodes");
    v2.encode(8, stream).expect("valid K");

    let damaged = damage_first_segment(&v3, &v3_frame);
    let session = DecodeSession::new().threads(threads);
    assert!(session.decode_frame(&damaged, Policy::Strict).is_err());
    let repaired = session
        .decode_frame(&damaged, Policy::Repair)
        .expect("file headers intact");
    assert!(repaired.report.expect("damage reported").is_full_recovery());

    let streamed = v2
        .decode_stream_reader(&mut FrameReader::new(std::io::Cursor::new(&v2_frame)))
        .expect("clean frame streams");
    assert_eq!(streamed.len(), stream.len());

    let path = dir.join(format!("t{threads}.9ca"));
    let mut archive = Archive::create(&path, &v3).expect("archive creates");
    archive.append_frame(&v3_frame).expect("frame appends");
    let receipt = archive.append_frame(&v3_frame).expect("repeat appends");
    assert!(receipt.dedup_hits > 0, "a repeated frame dedups");
    let range = archive.decode_range(0, 300, 2_000).expect("range decodes");
    assert_eq!(range.len(), 2_000);
    archive.scrub(ScrubMode::Check).expect("scrub runs");
}

/// One line per exported name, in the snapshot's sorted order.
fn render(snapshot: &ninec_obs::Snapshot) -> String {
    let mut out = String::new();
    let mut workers_present = false;
    for (name, value) in &snapshot.counters {
        if name.starts_with("ninec.engine.worker.") && name.ends_with(".busy_ns") {
            if !workers_present {
                workers_present = true;
                out.push_str("counter ninec.engine.worker.<i>.busy_ns present\n");
            }
        } else if name.ends_with("_ns") {
            writeln!(out, "counter {name} present").expect("write to String");
        } else {
            writeln!(out, "counter {name} {value}").expect("write to String");
        }
    }
    for (name, _) in &snapshot.gauges {
        writeln!(out, "gauge {name} present").expect("write to String");
    }
    for (name, hist) in &snapshot.histograms {
        writeln!(out, "histogram {name} count {}", hist.count).expect("write to String");
    }
    out
}

#[test]
fn seeded_calls_export_the_golden_metrics() {
    let dir = tempdir();
    for threads in [1, 3] {
        run_calls(threads, &dir);
    }
    let rendered = render(&ninec_obs::snapshot());
    let _ = std::fs::remove_dir_all(&dir);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("OBS_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {GOLDEN} ({e}); run with OBS_BLESS=1"));
    assert!(
        rendered == golden,
        "metrics export drifted from {GOLDEN}; re-bless with OBS_BLESS=1 if intended.\n\
         --- golden\n{golden}--- now\n{rendered}"
    );
}
