//! Noise tooling: `--repeat` runs a workload in fresh processes and
//! summarises each metric's spread; `compare` judges two such summaries
//! by the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use serde_json::{json, Value};

use crate::stats::quartiles;

/// Runs `workload` `n` times, each in a fresh process on its own seed
/// (`seed`, `seed + 1`, …), and prints each metric's median, quartiles
/// and spread (interquartile range over median). Writes the summary and
/// every run (its metrics and, traced, its self-time table) to `out` when
/// given. Exits 1 when any run failed.
pub fn repeat(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    n: u64,
    out: Option<&Path>,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut fingerprint = Vec::new();
    let mut all_ok = true;
    for s in seed..seed + n {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &s.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok())
            .unwrap_or(Value::Null);
        all_ok &= output.status.success() && result["correct"] == Value::Bool(true);
        let (mut lines, mut self_time) = (Vec::new(), Vec::new());
        for line in stdout.lines() {
            if let Some(rest) = line.strip_prefix("# fingerprint ") {
                if s == seed {
                    let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                    fingerprint.push((k.to_string(), json!(v)));
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("# self_time ") {
                self_time.push(json!(rest));
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if let [name, value, unit] = fields[..] {
                if let Ok(v) = value.parse::<f64>() {
                    let e = values.entry(name.to_string()).or_default();
                    e.0.push(v);
                    e.1 = unit.to_string();
                    lines.push((name.to_string(), json!(v)));
                }
            }
        }
        runs.push(json!({
            "seed": s,
            "exit": output.status.code(),
            "result": result,
            "lines": Value::Object(lines),
            "self_time": self_time,
        }));
    }
    println!(
        "# {workload}: {n} runs, seeds {seed}..{}, trace {}",
        seed + n - 1,
        trace as u8
    );
    println!("# metric median q1 q3 spread_pct unit");
    let mut summary = Vec::new();
    for (name, (v, unit)) in &values {
        let (q1, med, q3) = quartiles(v);
        let spread = (q3 - q1) / med.abs() * 100.0;
        println!("{name} {med} {q1} {q3} {spread:.2} {unit}");
        summary.push((
            name.clone(),
            json!({"median": med, "q1": q1, "q3": q3, "spread_pct": spread, "unit": unit.as_str()}),
        ));
    }
    if let Some(path) = out {
        let doc = json!({
            "workload": workload,
            "trace": trace,
            "seconds": seconds,
            "seeds": (seed..seed + n).collect::<Vec<u64>>(),
            "fingerprint": Value::Object(fingerprint),
            "summary": Value::Object(summary),
            "runs": runs,
        });
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Compares two `--repeat` summaries of one workload metric by metric:
/// a median worse than the baseline's by more than the metric's bound is
/// a regression. Exits 1 on any regression.
pub fn compare(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(base)?, load(new)?);
    let spec = load(&crate::repo_root().join("BENCHMARK.json"))?;
    if a["workload"] != b["workload"] {
        return Err("the two summaries are of different workloads".into());
    }
    println!("# metric base_median new_median change_pct bound_pct verdict");
    let mut regressions = 0;
    let metrics = spec["end_to_end"].as_array().cloned().unwrap_or_default();
    for m in &metrics {
        let name = m["name"].as_str().unwrap_or_default();
        let (Some(x), Some(y)) = (
            a["summary"][name]["median"].as_f64(),
            b["summary"][name]["median"].as_f64(),
        ) else {
            continue;
        };
        let bound = m["bound"].as_f64().unwrap_or(0.0);
        let change = (y - x) / x;
        let worse = if m["better"].as_str() == Some("lower") {
            change
        } else {
            -change
        };
        let verdict = if worse > bound {
            regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{name} {x} {y} {:.2} {:.1} {verdict}",
            change * 100.0,
            bound * 100.0
        );
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
