//! `--trace-spans` lists the flight recorder's spans: the command's own
//! span and every span under it, worker jobs included, and nothing an
//! earlier command recorded.
//!
//! This file is its own test binary because its `--trace` run drains
//! the process-global recorder, which would take the events of any
//! command running beside it.

use ninec::{Engine, PlanEntry};
use std::collections::HashSet;
use std::path::Path;

fn run_ok(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    ninec_cli::run(&args, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    String::from_utf8(out).unwrap()
}

/// The `(depth, name)` lines of the span listing in `out`, after
/// checking its header's count.
fn listing(out: &str) -> Vec<(usize, String)> {
    let at = out
        .find("# spans (")
        .unwrap_or_else(|| panic!("no listing in {out}"));
    let mut lines = out[at..].lines();
    let header = lines.next().unwrap();
    let spans: Vec<(usize, String)> = lines
        .map(|line| {
            let (_, indented) = line.split_once(" ns  ").unwrap();
            let name = indented.trim_start();
            ((indented.len() - name.len()) / 2, name.to_owned())
        })
        .collect();
    assert_eq!(header, format!("# spans ({} events)", spans.len()));
    spans
}

/// The names of span `root` and of every span under it in a JSON-lines
/// trace, in start order.
fn subtree_names(jsonl: &str, root: &str) -> Vec<String> {
    let starts: Vec<serde_json::Value> = jsonl
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .filter(|e: &serde_json::Value| e["kind"].as_str() == Some("span_start"))
        .collect();
    let root_id = starts
        .iter()
        .rev()
        .find(|e| e["name"].as_str() == Some(root))
        .and_then(|e| e["span"].as_u64())
        .unwrap_or_else(|| panic!("no {root} span in the trace"));
    let mut inside = HashSet::from([root_id]);
    let mut names = Vec::new();
    for e in &starts {
        let span = e["span"].as_u64().unwrap();
        if span == root_id || e["parent"].as_u64().is_some_and(|p| inside.contains(&p)) {
            inside.insert(span);
            names.push(e["name"].as_str().unwrap().to_owned());
        }
    }
    names
}

fn path_str(path: &Path) -> &str {
    path.to_str().unwrap()
}

#[test]
fn trace_spans_list_the_command_span_and_every_span_under_it() {
    let dir = std::env::temp_dir().join(format!("ninec_trace_spans_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (cubes, frame, trace) = (dir.join("t.cubes"), dir.join("x.9cf"), dir.join("f.jsonl"));
    run_ok(&["generate", "custom:8,96,75", "-o", path_str(&cubes)]);
    let compress = [
        "--trace-spans",
        "compress",
        path_str(&cubes),
        "-o",
        path_str(&frame),
        "--threads",
        "2",
        "--segment-bits",
        "128",
    ];

    let first = listing(&run_ok(&compress));
    let bytes = std::fs::read(&frame).unwrap();
    let segments = Engine::builder()
        .build()
        .build_plan(&bytes)
        .unwrap()
        .entries()
        .iter()
        .filter(|e| matches!(e, PlanEntry::Data { .. }))
        .count();
    assert!(segments > 2, "the frame must span several segments");
    let mut expected = vec![
        (0, "cli_compress".to_owned()),
        (1, "engine_encode_frame".to_owned()),
    ];
    expected.extend((0..segments).map(|_| (2, "job".to_owned())));
    assert_eq!(first, expected);

    // A second command lists only its own spans.
    assert_eq!(listing(&run_ok(&compress)), expected);

    // With `--trace`, the drained events feed both the file and the
    // listing.
    let traced = [&compress[..], &["--trace", path_str(&trace)]].concat();
    assert_eq!(listing(&run_ok(&traced)), expected);
    let names = subtree_names(&std::fs::read_to_string(&trace).unwrap(), "cli_compress");
    let expected_names: Vec<String> = expected.into_iter().map(|(_, name)| name).collect();
    assert_eq!(names, expected_names);
    let _ = std::fs::remove_dir_all(&dir);
}
