//! Golden-file tests for the two exposition formats.
//!
//! The golden files live in `tests/golden/`; regenerate them after an
//! intentional renderer change with
//! `OBS_BLESS=1 cargo test -p ninec-obs --test exporters`.

use ninec_obs::{HistogramSnapshot, Snapshot};
use std::path::PathBuf;

/// A fixed snapshot exercising every metric kind and the histogram
/// cumulative-bucket path, with names that need sanitizing.
fn sample() -> Snapshot {
    Snapshot {
        counters: vec![
            ("ninec.encode.blocks".to_owned(), 128),
            ("ninec.encode.case.C1".to_owned(), 57),
        ],
        gauges: vec![("ninec.baseline.9C.cr_pct".to_owned(), 61.25)],
        histograms: vec![(
            "ninec.encode.codeword_bits".to_owned(),
            HistogramSnapshot {
                count: 5,
                sum: 20,
                min: Some(1),
                max: Some(8),
                buckets: vec![(1, 2), (7, 2), (15, 1)],
            },
        )],
    }
}

fn check_golden(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("OBS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with OBS_BLESS=1", name));
    assert_eq!(rendered, expected, "golden mismatch for {name}");
}

#[test]
fn prometheus_text_matches_golden() {
    check_golden("snapshot.prom", &sample().render_prometheus());
}

#[test]
fn json_matches_golden() {
    let mut rendered = sample().render_json();
    rendered.push('\n');
    check_golden("snapshot.json", &rendered);
}

#[test]
fn empty_snapshot_documents_are_stable() {
    let s = Snapshot::default();
    assert_eq!(s.render_prometheus(), "");
    let json = s.render_json();
    assert!(json.contains("\"counters\": {}"));
    assert!(json.contains("\"gauges\": {}"));
    assert!(json.contains("\"histograms\": {}"));
}

/// End-to-end through the live registry: record → snapshot → render.
#[test]
fn registry_snapshot_round_trip() {
    let reg = ninec_obs::global();
    reg.counter("exp.hits").add(4);
    reg.gauge("exp.ratio").set(0.5);
    let h = reg.histogram("exp.lat");
    h.record(3);
    h.record(9);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("exp.hits"), Some(4));
    assert_eq!(snap.gauge("exp.ratio"), Some(0.5));
    let hs = snap.histogram("exp.lat").unwrap();
    assert_eq!(hs.count, 2);
    assert_eq!(hs.sum, 12);
    assert_eq!(hs.min, Some(3));
    assert_eq!(hs.max, Some(9));
    let text = snap.render_prometheus();
    assert!(text.contains("exp_hits 4\n"));
    assert!(text.contains("exp_lat_bucket{le=\"+Inf\"} 2\n"));
    let json = snap.render_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
}
