//! The ninec benchmark: one command, five workloads, every metric named.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> --repeat <n> [--out <file>]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! A run prints a machine fingerprint and the input digest as `#` lines,
//! then every metric as `name value unit`, and last one JSON object with
//! the check tally and the metrics `BENCHMARK.json` names — end-to-end
//! ones untraced, per-layer ones with `--trace 1`. It exits 1 when any
//! output was wrong and 2 on a usage or set-up error, without a result.
//! See README.md for the workloads and the metric glossary.

mod api;
mod fingerprint;
mod gen;
mod stats;
mod tools;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::{json, Value};
use workloads::{Opts, Run};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Where runs write archives and traces (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn cli(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [a, b] = &args[1..] else {
            return Err("usage: benchmark compare <a.json> <b.json>".into());
        };
        return tools::compare(Path::new(a), Path::new(b));
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut repeat, mut out) = (1, 15.0f64, false, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--repeat" => repeat = Some(value.parse().map_err(|e| bad(&e))?),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if let Some(n) = repeat {
        if n == 0 {
            return Err("--repeat needs at least one run".into());
        }
        return tools::repeat(&workload, seed, seconds, trace, n, out.as_deref());
    }
    let opts = Opts {
        seed,
        seconds,
        trace,
        tiny: false,
        corrupt: false,
        out_dir: out_dir(),
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let run = workloads::run(&workload, &opts)?;
    let (text, result, code) = report(&workload, &opts, &run)?;
    print!("{text}");
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(code)
}

/// The printed lines, the result object and the exit code of one run.
fn report(workload: &str, opts: &Opts, run: &Run) -> Result<(String, Value, ExitCode), String> {
    let mut text = format!(
        "# workload {workload} seed {} seconds {} trace {}\n# input_digest {:016x}\n",
        opts.seed, opts.seconds, opts.trace as u8, run.input_digest
    );
    for (key, value) in fingerprint::collect(&repo_root(), &opts.out_dir) {
        text.push_str(&format!("# fingerprint {key} {value}\n"));
    }
    if opts.trace {
        text.push_str(&write_trace(workload, opts, run)?);
    }
    for m in run.metrics.iter().chain(&run.extras) {
        text.push_str(&format!("{} {} {}\n", m.name, m.value, m.unit));
    }
    for failure in &run.check.first_failures {
        eprintln!("benchmark: wrong output: {failure}");
    }
    let unmeasured: Vec<&str> = run
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !unmeasured.is_empty() {
        eprintln!("benchmark: not measured: {}", unmeasured.join(", "));
    }
    let correct = run.check.correct() && unmeasured.is_empty();
    let metrics = Value::Object(
        run.metrics
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect(),
    );
    let result = json!({
        "correct": correct,
        "attempted": run.check.attempted,
        "failed": run.check.failed,
        "metrics": metrics,
    });
    let code = if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    };
    Ok((text, result, code))
}

/// Writes the Chrome trace and the self-time table of a traced run;
/// returns the table as `#` lines.
fn write_trace(workload: &str, opts: &Opts, run: &Run) -> Result<String, String> {
    let base = opts
        .out_dir
        .join(format!("trace-{workload}-seed{}", opts.seed));
    let mut table = String::from("# self_time span count total_ms self_ms\n");
    for (name, (count, total, own)) in run.tracer.self_times() {
        table.push_str(&format!(
            "# self_time {name} {count} {:.3} {:.3}\n",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    let write = |ext: &str, body: &str| {
        let path = base.with_extension(ext);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("json", &run.tracer.chrome_json())?;
    write("selftime.txt", &table)?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| m["name"].as_str().expect("a name").to_string())
            .collect()
    }

    fn tiny(trace: bool, corrupt: bool) -> Opts {
        Opts {
            seed: 3,
            seconds: 0.3,
            trace,
            tiny: true,
            corrupt,
            out_dir: out_dir().join("test"),
        }
    }

    fn run_tiny(workload: &str, opts: &Opts) -> (Value, ExitCode) {
        std::fs::create_dir_all(&opts.out_dir).expect("scratch dir");
        let run = workloads::run(workload, opts).expect("workload runs");
        let (_, result, code) = report(workload, opts, &run).expect("report");
        (result, code)
    }

    fn metric_names(result: &Value) -> Vec<String> {
        match &result["metrics"] {
            Value::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("metrics is an object"),
        }
    }

    #[test]
    fn every_workload_prints_exactly_the_declared_metrics() {
        let doc = benchmark_json();
        let declared: Vec<String> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name").to_string())
            .collect();
        assert_eq!(declared, workloads::NAMES);
        for w in workloads::NAMES {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let (result, code) = run_tiny(w, &tiny(trace, false));
                assert_eq!(code, ExitCode::SUCCESS, "{w} trace={trace}: {result:?}");
                assert_eq!(result["correct"], Value::Bool(true), "{w}");
                assert_eq!(metric_names(&result), names(&doc, key), "{w} trace={trace}");
            }
        }
    }

    #[test]
    fn a_corrupted_expected_output_exits_non_zero() {
        for w in workloads::NAMES {
            let (result, code) = run_tiny(w, &tiny(false, true));
            assert_ne!(code, ExitCode::SUCCESS, "{w}");
            assert_eq!(result["correct"], Value::Bool(false), "{w}");
        }
    }
}
