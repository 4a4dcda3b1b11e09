//! The metric implementation: lock-free atomic cells behind cloneable
//! handles, registered in a named [`Registry`].
//!
//! Handles are cheap `Arc`s onto the shared atomic state; the registry
//! mutex is touched only at registration/snapshot time, never on the hot
//! path: every metric and span the data plane publishes is a
//! [`catalogue`](crate::catalogue) entry that looks its cell up once, on
//! its first publish, and keeps the handle. All updates use relaxed
//! ordering — metrics need totals, not ordering, and a
//! [`Registry::snapshot`] sees every update that happened-before it via
//! the mutex acquire.

use crate::export::{bucket_index, bucket_upper, HistogramSnapshot, Snapshot, BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing atomic counter handle.
///
/// Clones share the same cell; updates are wait-free.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    /// `0` while empty (disambiguated by `count`).
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket log2 histogram handle (65 buckets covering all of
/// `u64`; see [`crate::export::bucket_index`]).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` in one update — how per-case
    /// codeword-length distributions are flushed in bulk.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let core = &*self.0;
        // min/max/sum land before the bucket: any sample a concurrent
        // snapshot counts via the bucket array is already reflected in
        // the order statistics it reads afterwards.
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
        core.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        core.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        core.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Arithmetic mean (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Smallest observation, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.0.min.load(Ordering::Relaxed))
        }
    }

    /// Largest observation, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.0.max.load(Ordering::Relaxed))
        }
    }

    /// Records every sample of `batch` in one update per touched bucket
    /// — the same state as recording each sample on its own.
    pub fn record_batch(&self, batch: &SampleBatch) {
        if batch.count == 0 {
            return;
        }
        let core = &*self.0;
        // Order statistics before buckets, as in `record_n`.
        core.min.fetch_min(batch.min, Ordering::Relaxed);
        core.max.fetch_max(batch.max, Ordering::Relaxed);
        core.sum.fetch_add(batch.sum, Ordering::Relaxed);
        for (cell, &n) in core.buckets.iter().zip(&batch.buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        core.count.fetch_add(batch.count, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        // One pass over the bucket atomics, with the total *derived from
        // those same reads*: a concurrent record_n may land between two
        // loads, but `count == Σ bucket counts` holds for whatever this
        // pass observed, so the exported document is always internally
        // consistent (the Prometheus `+Inf` bucket equals `_count`).
        let mut count = 0u64;
        let mut buckets = Vec::new();
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push((bucket_upper(i), n));
            }
        }
        let (min, max) = if count == 0 {
            (None, None)
        } else {
            (
                Some(self.0.min.load(Ordering::Relaxed)),
                Some(self.0.max.load(Ordering::Relaxed)),
            )
        };
        HistogramSnapshot {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            min,
            max,
            buckets,
        }
    }
}

/// Histogram samples gathered locally — plain integers, no atomics —
/// and recorded in one [`Histogram::record_batch`]: how a call hands
/// its per-segment samples over once, after its jobs have joined.
#[derive(Debug, Clone)]
pub struct SampleBatch {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for SampleBatch {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl SampleBatch {
    /// Adds one sample of `value`.
    pub fn add(&mut self, value: u64) {
        self.add_n(value, 1);
    }

    /// Adds `n` samples of `value`.
    pub fn add_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        // Wrapping, as the histogram's own `fetch_add` of the sum is.
        self.sum = self.sum.wrapping_add(value.saturating_mul(n));
        self.buckets[bucket_index(value)] += n;
        self.count += n;
    }

    /// Samples gathered so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// A named metric registry.
///
/// `Registry::new()` is `const`, so registries can live in statics; the
/// process-wide default is [`global`]. Each handle lookup locks a mutex
/// and allocates its name, so hot paths resolve a handle once: every
/// metric the data plane publishes is a [`catalogue`](crate::catalogue)
/// entry that does so on its first publish. [`Registry::lookups`]
/// counts the lookups, so a test can show a warm call makes none.
#[derive(Debug, Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
    lookups: AtomicU64,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            slots: Mutex::new(BTreeMap::new()),
            lookups: AtomicU64::new(0),
        }
    }

    /// Lookups by name served so far: every [`counter`](Self::counter),
    /// [`gauge`](Self::gauge) and [`histogram`](Self::histogram) call.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Returns the counter `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Counter(Arc::new(AtomicU64::new(0))))) {
            Slot::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0))))) {
            Slot::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.slot(name, || {
            Slot::Histogram(Histogram(Arc::new(HistogramCore::new())))
        }) {
            Slot::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots.lock().expect("registry poisoned");
        slots.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// Copies every metric into a [`Snapshot`], sorted by name.
    ///
    /// The cell handles are collected under the registry lock and then
    /// read outside it: the snapshot is one point-in-time pass over a
    /// fixed set of cells, never blocked by (or blocking) concurrent
    /// registrations, and each histogram renders internally consistent
    /// even while writers are recording.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let cells: Vec<(String, Slot)> = {
            let slots = self.slots.lock().expect("registry poisoned");
            slots
                .iter()
                .map(|(name, slot)| (name.clone(), slot.clone()))
                .collect()
        };
        let mut snap = Snapshot::default();
        for (name, slot) in cells {
            match slot {
                Slot::Counter(c) => snap.counters.push((name, c.get())),
                Slot::Gauge(g) => snap.gauges.push((name, g.get())),
                Slot::Histogram(h) => snap.histograms.push((name, h.snapshot())),
            }
        }
        snap
    }

    /// Zeroes every metric, keeping registrations (and outstanding
    /// handles) alive.
    pub fn reset(&self) {
        let slots = self.slots.lock().expect("registry poisoned");
        for slot in slots.values() {
            match slot {
                Slot::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Slot::Gauge(g) => g.set(0.0),
                Slot::Histogram(h) => h.0.reset(),
            }
        }
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide default registry every `ninec` crate reports into.
#[must_use]
pub fn global() -> &'static Registry {
    &GLOBAL
}

static RUNTIME: AtomicBool = AtomicBool::new(true);

/// Runtime kill switch consulted by every instrumentation call site
/// (flushes, spans and the flight recorder): while it is off, no
/// metric is published and no trace event recorded. Defaults to on; the
/// `benchmark/` package's traced bulk runs turn it off for every third
/// decode, so one binary measures the obs-on vs obs-off delta.
pub fn set_runtime_enabled(on: bool) {
    RUNTIME.store(on, Ordering::Relaxed);
}

/// Whether runtime collection is currently on.
#[must_use]
pub fn runtime_enabled() -> bool {
    RUNTIME.load(Ordering::Relaxed)
}

/// Always `true`: telemetry has one build, switched off at run time
/// with [`set_runtime_enabled`]. Kept only because the `benchmark/`
/// package records it in its machine fingerprint.
#[must_use]
pub const fn is_compiled() -> bool {
    true
}

// --- flight recorder -------------------------------------------------

use crate::catalogue::HistogramDef;
use crate::trace::{
    EventKind, RungKind, TraceEvent, TracePayload, GLOBAL_RING_CAPACITY, NO_WORKER,
    THREAD_RING_CAPACITY,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// A bounded oldest-first-evicting event buffer.
#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    cap: usize,
}

impl Ring {
    const fn new(cap: usize) -> Self {
        Self {
            buf: VecDeque::new(),
            cap,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
    }

    fn merge_from(&mut self, other: &mut VecDeque<TraceEvent>) {
        for ev in other.drain(..) {
            self.push(ev);
        }
    }
}

static TRACE_ON: AtomicBool = AtomicBool::new(true);
static TRACE_SEQ: AtomicU64 = AtomicU64::new(1);
static TRACE_IDS: AtomicU64 = AtomicU64::new(0);
static SPAN_IDS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_TRACE: Mutex<Ring> = Mutex::new(Ring::new(GLOBAL_RING_CAPACITY));

/// Locks the global ring, recovering from poison: the recorder is the
/// one thing that must keep working while a worker panic unwinds.
fn global_ring() -> std::sync::MutexGuard<'static, Ring> {
    match GLOBAL_TRACE.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Per-thread trace context: which trace the thread is contributing to,
/// which engine worker it is, and the open-span stack for parenting.
#[derive(Debug)]
struct TraceCtx {
    trace: u64,
    worker: u32,
    inherited_parent: u64,
    stack: Vec<u64>,
}

/// Thread-local ring wrapper whose drop drains into the global ring, so
/// a pool worker's timeline survives its (scoped) thread exiting.
struct LocalRing(RefCell<Ring>);

impl Drop for LocalRing {
    fn drop(&mut self) {
        let mut local = self.0.borrow_mut();
        if !local.buf.is_empty() {
            global_ring().merge_from(&mut local.buf);
        }
    }
}

thread_local! {
    static LOCAL_TRACE: LocalRing =
        const { LocalRing(RefCell::new(Ring::new(THREAD_RING_CAPACITY))) };
    static TRACE_CTX: RefCell<TraceCtx> = const {
        RefCell::new(TraceCtx {
            trace: 0,
            worker: NO_WORKER,
            inherited_parent: 0,
            stack: Vec::new(),
        })
    };
}

/// Flight-recorder kill switch, independent of the metrics switch but
/// also gated by it: events are recorded only while *both*
/// [`runtime_enabled`] and this switch are on. Defaults to on — the
/// recorder is always-on at bounded memory; `bench_core`'s 5% budget
/// flips this to time decodes with the recorder on and off.
pub fn set_trace_enabled(on: bool) {
    TRACE_ON.store(on, Ordering::Relaxed);
}

/// Whether the flight recorder is currently capturing events: both its
/// own switch and [`runtime_enabled`] are on.
#[must_use]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed) && runtime_enabled()
}

/// Starts a new trace on the calling thread and returns its id (ids
/// start at 1; `0` means "outside any trace"). Subsequent events on
/// this thread — and on engine workers that inherit the context via
/// [`set_trace_context`] — are stamped with the id, so one decode's
/// timeline can be filtered out of the shared recorder.
pub fn begin_trace() -> u64 {
    let id = TRACE_IDS.fetch_add(1, Ordering::Relaxed) + 1;
    TRACE_CTX.with(|c| c.borrow_mut().trace = id);
    id
}

/// `(trace id, enclosing span id)` on the calling thread — captured by
/// the executor before spawning workers so their events nest under the
/// submitting span.
#[must_use]
pub fn trace_context() -> (u64, u64) {
    TRACE_CTX.with(|c| {
        let ctx = c.borrow();
        let parent = ctx.stack.last().copied().unwrap_or(ctx.inherited_parent);
        (ctx.trace, parent)
    })
}

/// Adopts a trace context captured by [`trace_context`] on another
/// thread: events recorded here now carry `trace` and parent under
/// `parent` (until a local span opens deeper).
pub fn set_trace_context(trace: u64, parent: u64) {
    TRACE_CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        ctx.trace = trace;
        ctx.inherited_parent = parent;
    });
}

/// Stamps the calling thread as engine worker `worker` ([`NO_WORKER`]
/// to clear). Returns the previous value so callers can restore it —
/// the serial executor fallback runs on the caller's thread.
pub fn set_trace_worker(worker: u32) -> u32 {
    TRACE_CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        std::mem::replace(&mut ctx.worker, worker)
    })
}

/// A recorded span's id and its parent's (`0` for a root); an instant
/// has span id `0`.
#[derive(Debug, Clone, Copy)]
struct SpanIds {
    span: u64,
    parent: u64,
}

/// Pushes one event, stamped `at`, onto the calling thread's ring.
fn record_event(
    kind: EventKind,
    name: &'static str,
    ids: SpanIds,
    segment: u32,
    rung: RungKind,
    payload: TracePayload,
    at: Instant,
) {
    let (trace, worker) = TRACE_CTX.with(|c| {
        let ctx = c.borrow();
        (ctx.trace, ctx.worker)
    });
    let ev = TraceEvent {
        seq: TRACE_SEQ.fetch_add(1, Ordering::Relaxed),
        nanos: nanos_between(trace_epoch(), at),
        kind,
        name,
        trace,
        span: ids.span,
        parent: ids.parent,
        worker,
        segment,
        rung,
        payload,
    };
    LOCAL_TRACE.with(|l| l.0.borrow_mut().push(ev));
}

/// Whole nanoseconds from `from` to `to`, saturating at both ends.
fn nanos_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from)
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// Records a point-in-time event on the calling thread's ring. Inert
/// while [`trace_enabled`] is off.
pub fn trace_instant(name: &'static str, segment: u32, rung: RungKind, payload: TracePayload) {
    if !trace_enabled() {
        return;
    }
    let parent = TRACE_CTX.with(|c| {
        let ctx = c.borrow();
        ctx.stack.last().copied().unwrap_or(ctx.inherited_parent)
    });
    let ids = SpanIds { span: 0, parent };
    record_event(
        EventKind::Instant,
        name,
        ids,
        segment,
        rung,
        payload,
        Instant::now(),
    );
}

/// An open span, the one span guard: opened from a
/// [`catalogue`](crate::catalogue) entry by
/// [`SpanDef::start`](crate::catalogue::SpanDef::start) or
/// [`SpanDef::start_at`](crate::catalogue::SpanDef::start_at), closed
/// when dropped.
///
/// A timed entry records its duration into its `span.<name>.ns`
/// histogram. While [`trace_enabled`] is on, the span also records one
/// `SpanStart`/`SpanEnd` pair on the flight recorder, and spans nest
/// per thread: the innermost open span is the parent of anything
/// recorded under it. The histogram sample and both events come from
/// the same two clock reads, one at open and one at close. A span that
/// would record nothing, because [`runtime_enabled`] is off or because
/// it is untimed while the recorder is off, is inert and reads no clock.
#[derive(Debug)]
pub struct Span {
    inner: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    start: Instant,
    /// The duration histogram of a timed entry.
    hist: Option<&'static Histogram>,
    /// The recorder's ids, when the recorder took the start.
    ids: Option<SpanIds>,
    segment: u32,
}

impl Span {
    /// Opens span `name` for `segment`, with `payload` on its start.
    pub(crate) fn open(
        name: &'static str,
        hist: Option<HistogramDef>,
        segment: u32,
        payload: TracePayload,
    ) -> Self {
        let traced = TRACE_ON.load(Ordering::Relaxed);
        if !runtime_enabled() || (hist.is_none() && !traced) {
            return Span { inner: None };
        }
        let hist = hist.map(HistogramDef::handle);
        if traced {
            // Fix the epoch before the clock read: no stamp precedes it.
            trace_epoch();
        }
        let start = Instant::now();
        let ids = traced.then(|| {
            let span = SPAN_IDS.fetch_add(1, Ordering::Relaxed) + 1;
            let parent = TRACE_CTX.with(|c| {
                let mut ctx = c.borrow_mut();
                let parent = ctx.stack.last().copied().unwrap_or(ctx.inherited_parent);
                ctx.stack.push(span);
                parent
            });
            let ids = SpanIds { span, parent };
            record_event(
                EventKind::SpanStart,
                name,
                ids,
                segment,
                RungKind::None,
                payload,
                start,
            );
            ids
        });
        Span {
            inner: Some(OpenSpan {
                name,
                start,
                hist,
                ids,
                segment,
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else {
            return;
        };
        let end = Instant::now();
        if let Some(hist) = open.hist {
            hist.record(nanos_between(open.start, end));
        }
        let Some(ids) = open.ids else {
            return;
        };
        TRACE_CTX.with(|c| {
            let mut ctx = c.borrow_mut();
            // LIFO in practice; tolerate out-of-order drops anyway.
            if ctx.stack.last() == Some(&ids.span) {
                ctx.stack.pop();
            } else if let Some(at) = ctx.stack.iter().rposition(|&s| s == ids.span) {
                ctx.stack.remove(at);
            }
        });
        // The end is recorded even if the kill switch flipped mid-span,
        // so every recorded SpanStart has its matching SpanEnd.
        record_event(
            EventKind::SpanEnd,
            open.name,
            ids,
            open.segment,
            RungKind::None,
            TracePayload::None,
            end,
        );
    }
}

/// Drains the calling thread's ring into the global one. Called
/// automatically on thread exit, by each spawned engine worker at the
/// end of its job loop, and by the engine on decode errors, worker
/// panics and partial salvage, so the recorder holds the interesting
/// tail when something goes wrong.
pub fn flush_thread_trace() {
    LOCAL_TRACE.with(|l| {
        let mut local = l.0.borrow_mut();
        if !local.buf.is_empty() {
            global_ring().merge_from(&mut local.buf);
        }
    });
}

/// Flushes the calling thread and drains the global ring, returning
/// every retained event in record order.
#[must_use]
pub fn take_trace() -> Vec<TraceEvent> {
    flush_thread_trace();
    let mut events: Vec<TraceEvent> = {
        let mut ring = global_ring();
        ring.buf.drain(..).collect()
    };
    events.sort_by_key(|e| e.seq);
    events
}

/// A non-draining copy of every retained event (global ring plus the
/// calling thread's ring), in record order.
#[must_use]
pub fn snapshot_trace() -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = global_ring().buf.iter().copied().collect();
    LOCAL_TRACE.with(|l| events.extend(l.0.borrow().buf.iter().copied()));
    events.sort_by_key(|e| e.seq);
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("c").get(), 5); // same cell via name
        let g = reg.gauge("g");
        g.set(2.25);
        assert_eq!(reg.gauge("g").get(), 2.25);
    }

    #[test]
    fn histogram_stats() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        h.record(0);
        h.record(3);
        h.record_n(5, 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 13);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(5));
        assert!((h.mean() - 3.25).abs() < 1e-12);
        let snap = h.snapshot();
        // 0 -> bucket 0 (le 0); 3 -> bucket 2 (le 3); 5,5 -> bucket 3 (le 7).
        assert_eq!(snap.buckets, vec![(0, 1), (3, 1), (7, 2)]);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn a_batch_records_like_its_samples_one_by_one() {
        let reg = Registry::new();
        let (one_by_one, batched) = (reg.histogram("a"), reg.histogram("b"));
        let mut batch = SampleBatch::default();
        for (value, n) in [(0, 1), (3, 2), (900, 1), (5, 0), (u64::MAX, 1)] {
            one_by_one.record_n(value, n);
            batch.add_n(value, n);
        }
        batched.record_batch(&batch);
        batched.record_batch(&SampleBatch::default());
        assert_eq!(batch.count(), 5);
        assert_eq!(one_by_one.snapshot(), batched.snapshot());
    }

    #[test]
    fn lookups_count_every_lookup_by_name() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let _ = reg.histogram("h");
        let _ = reg.counter("c");
        c.add(3);
        assert_eq!(reg.lookups(), 3);
    }

    #[test]
    fn reset_keeps_handles_live() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.add(7);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.snapshot().counter("c"), Some(1));
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
