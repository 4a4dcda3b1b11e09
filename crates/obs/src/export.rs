//! Snapshot types and the two exposition formats.
//!
//! A [`Snapshot`] is a point-in-time copy of a registry's metrics, fully
//! decoupled from the live atomics, so exporters and their golden tests
//! can build one by hand without touching the global registry.
//!
//! Two renderers are provided:
//!
//! - [`Snapshot::render_prometheus`] — Prometheus text exposition
//!   (`# TYPE` comments, cumulative `_bucket{le="…"}` histogram series);
//! - [`Snapshot::to_json`] / [`Snapshot::render_json`] — a JSON document
//!   built on the vendored `serde_json` [`Value`] tree.

use serde_json::Value;

/// Number of log2 histogram buckets: bucket 0 holds the value `0`, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i - 1]`, bucket 64 tops out at
/// `u64::MAX`.
pub const BUCKETS: usize = 65;

/// The bucket index a value falls into (`0 ..= 64`).
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`0`, `1`, `3`, `7`, …,
/// `u64::MAX`).
#[must_use]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values, wrapping on overflow (each record
    /// adds with a wrapping `fetch_add`).
    pub sum: u64,
    /// Smallest recorded value, `None` when empty.
    pub min: Option<u64>,
    /// Largest recorded value, `None` when empty.
    pub max: Option<u64>,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded values (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every metric in a registry, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// `true` when no metric of any kind is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of the counter `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// Value of the gauge `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        lookup(&self.gauges, name).copied()
    }

    /// State of the histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        lookup(&self.histograms, name)
    }

    /// Renders Prometheus text exposition format.
    ///
    /// Metric names are sanitized (`.`/`-` → `_`); histogram buckets are
    /// emitted cumulatively with a final `+Inf` bucket, followed by
    /// `_sum` and `_count` series, per the exposition spec.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for &(upper, count) in &hist.buckets {
                cumulative += count;
                out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hist.count));
            out.push_str(&format!("{name}_sum {}\n", hist.sum));
            out.push_str(&format!("{name}_count {}\n", hist.count));
        }
        out
    }

    /// The snapshot as a JSON value:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    ///
    /// Histogram entries carry `count`, `sum`, `min`, `max`, `mean` and
    /// the non-empty `buckets` as `{"le": upper, "count": n}` objects.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), serde_json::json!(*v)))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), serde_json::json!(*v)))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let buckets: Vec<Value> = h
                        .buckets
                        .iter()
                        .map(|&(le, count)| serde_json::json!({"le": le, "count": count}))
                        .collect();
                    let body = serde_json::json!({
                        "count": h.count,
                        "sum": h.sum,
                        "min": h.min,
                        "max": h.max,
                        "mean": h.mean(),
                        "buckets": buckets,
                    });
                    (k.clone(), body)
                })
                .collect(),
        );
        Value::Object(vec![
            ("counters".to_owned(), counters),
            ("gauges".to_owned(), gauges),
            ("histograms".to_owned(), histograms),
        ])
    }

    /// [`Snapshot::to_json`] pretty-printed.
    #[must_use]
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("snapshot JSON cannot fail")
    }
}

fn lookup<'a, T>(entries: &'a [(String, T)], name: &str) -> Option<&'a T> {
    entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Prometheus-compatible metric name: every character outside
/// `[a-zA-Z0-9_:]` becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose bound brackets it.
        for v in [0u64, 1, 2, 5, 1023, 1024, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "{v}");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "{v}");
            }
        }
    }

    #[test]
    fn empty_snapshot_renders_valid_documents() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.render_prometheus(), "");
        let v = s.to_json();
        assert!(v["counters"].as_array().is_none()); // object, not array
        assert!(v.get("histograms").is_some());
        assert!(s.render_json().contains("\"counters\": {}"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let s = Snapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![(
                "h.x".to_owned(),
                HistogramSnapshot {
                    count: 5,
                    sum: 20,
                    min: Some(1),
                    max: Some(8),
                    buckets: vec![(1, 2), (7, 2), (15, 1)],
                },
            )],
        };
        let text = s.render_prometheus();
        assert!(text.contains("h_x_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("h_x_bucket{le=\"7\"} 4\n"));
        assert!(text.contains("h_x_bucket{le=\"15\"} 5\n"));
        assert!(text.contains("h_x_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("h_x_sum 20\n"));
        assert!(text.contains("h_x_count 5\n"));
    }

    #[test]
    fn lookup_helpers() {
        let s = Snapshot {
            counters: vec![("a".into(), 3)],
            gauges: vec![("g".into(), 1.5)],
            histograms: vec![("h".into(), HistogramSnapshot::default())],
        };
        assert_eq!(s.counter("a"), Some(3));
        assert_eq!(s.counter("b"), None);
        assert_eq!(s.gauge("g"), Some(1.5));
        assert_eq!(s.histogram("h").unwrap().count, 0);
        assert!((s.histogram("h").unwrap().mean() - 0.0).abs() < 1e-12);
    }
}
