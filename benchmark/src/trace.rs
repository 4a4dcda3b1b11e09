//! In-memory span recorder for the traced run.
//!
//! Spans are recorded here, in the benchmark's own files, around the
//! calls it makes into each layer: name, start, end, parent, thread and
//! (for serve) a request id. Nothing is written until the run ends, when
//! the spans become a Chrome trace-event document plus a self-time table.
//! With tracing off a [`Tracer`] only runs the closures it is handed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tid: u32,
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Threads each own one and the run merges
/// them with [`Tracer::absorb`] at the end.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this one's clock.
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_req(name, None, f)
    }

    /// [`span`](Tracer::span) tagged with a request id.
    pub fn span_req<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            tid: self.tid,
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Moves `other`'s spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total nanoseconds and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Per span name: count, total and self nanoseconds, where self time
    /// is a span's duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Smallest share, in percent, of a `parent_name` span that its
    /// children cover (100 when there is no such span).
    pub fn min_child_coverage_pct(&self, parent_name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == parent_name && s.dur_ns() > 0)
            .map(|(s, c)| c as f64 / s.dur_ns() as f64 * 100.0)
            .fold(100.0, f64::min)
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let times = tr.self_times();
        let (n, total, own) = times["outer"];
        assert_eq!(n, 1);
        assert!(own < total && total - own >= 2_000_000);
        assert!(tr.min_child_coverage_pct("outer") > 50.0);
        assert!(tr.chrome_json().contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.self_times().is_empty());
    }
}
