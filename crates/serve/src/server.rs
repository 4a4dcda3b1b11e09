//! The TCP codec service: acceptor, handler pool, admission control and
//! graceful degradation.
//!
//! # Architecture
//!
//! One acceptor thread owns the listener and feeds accepted connections
//! into a **bounded** queue consumed by a fixed pool of handler threads.
//! Nothing in the path buffers unboundedly: when the queue is full the
//! acceptor answers the new connection with a typed [`Status::Busy`]
//! frame and closes it — backpressure is a wire message, not a growing
//! `Vec`. The decode work itself runs on the engine's prioritized
//! executor (decode jobs land on the high-priority lane; parity repair
//! and salvage scans ride the low-priority lane), so the server adds
//! queuing *policy* on top of the existing data plane rather than a
//! second thread pool per request.
//!
//! # Admission and degradation
//!
//! Three gates run before any bytes are decoded, cheapest first:
//!
//! 1. **Rate limit** — the tenant's token bucket
//!    ([`Tenant::try_admit`]) refuses with [`Status::RateLimited`].
//! 2. **Admission window** — at most
//!    [`max_inflight`](ServeConfig::max_inflight) requests decode at
//!    once; the rest refuse with [`Status::Busy`].
//! 3. **Degradation** — when in-flight requests plus the executor's
//!    [`active_jobs`] tally reach
//!    [`degrade_threshold`](ServeConfig::degrade_threshold), the server
//!    sheds optional work instead of refusing: repair/salvage decodes
//!    downgrade to strict-only (the cheap rung), the response carries
//!    [`FLAG_DEGRADED`](crate::wire::FLAG_DEGRADED), and the `shed`
//!    counter ticks. Clients see exact answers or typed errors either
//!    way — degradation never silently changes a payload, it only
//!    refuses to climb the expensive ladder rungs.

use crate::tenant::{Tenant, TenantRegistry};
use crate::wire::{self, Op, Status};
use crate::{http, ServeConfig};
use ninec::engine::{active_jobs, Archive, ArchiveError};
use ninec::{CancelToken, SharedEngine};
use ninec_testdata::trit::TritVec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Point-in-time counters from [`Server::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Connections accepted (including ones refused with `Busy`).
    pub connections: u64,
    /// Requests read off the wire.
    pub requests: u64,
    /// Requests answered [`Status::Ok`].
    pub ok: u64,
    /// Connections or requests refused with [`Status::Busy`].
    pub busy: u64,
    /// Repair/salvage requests downgraded to strict by degraded mode.
    pub shed: u64,
    /// Requests refused with [`Status::RateLimited`].
    pub rate_limited: u64,
    /// Requests answered [`Status::Partial`] (lossy salvage).
    pub partial: u64,
    /// Requests answered [`Status::Failed`] or [`Status::BadRequest`].
    pub failed: u64,
    /// Requests answered [`Status::DeadlineExceeded`] — the effective
    /// deadline (`min(client deadline, max_request_time)`) tripped the
    /// request's cancel token before the decode finished.
    pub deadline_exceeded: u64,
}

/// Internal atomic counters, mirrored into the `ninec.serve.*`
/// observability namespace as they tick while runtime telemetry is on.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    connections: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    busy: AtomicU64,
    shed: AtomicU64,
    rate_limited: AtomicU64,
    partial: AtomicU64,
    failed: AtomicU64,
    deadline_exceeded: AtomicU64,
}

impl Stats {
    fn tick(field: &AtomicU64, metric: &str) {
        field.fetch_add(1, Ordering::Relaxed);
        ninec::metrics::publish_count(metric, 1);
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            partial: self.partial.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
        }
    }
}

/// Everything a handler thread needs, shared behind one `Arc`.
struct Shared {
    config: ServeConfig,
    engine: SharedEngine,
    tenants: TenantRegistry,
    stats: Stats,
    inflight: AtomicUsize,
    stop: Arc<AtomicBool>,
    conns: ConnTable,
    /// The hosted `9CA` archive for `ARCHIVE_RANGE`, opened (epoch index
    /// validated) at startup. Range decodes take `&self`, so handler
    /// threads share it without locking.
    archive: Option<Archive>,
}

/// Live-connection table: shutdown cancels every connection's token
/// (aborting in-flight decodes at the next segment boundary) and closes
/// every registered socket so handler threads blocked in a read return
/// immediately instead of waiting out the read timeout.
#[derive(Default)]
struct ConnTable {
    next: AtomicUsize,
    map: Mutex<std::collections::HashMap<usize, (TcpStream, CancelToken)>>,
}

impl ConnTable {
    /// Registers a clone of `stream` plus the connection's cancel token;
    /// `None` when cloning fails (the connection is still served, it
    /// just cannot be force-closed).
    fn register(&self, stream: &TcpStream, token: &CancelToken) -> Option<usize> {
        let clone = stream.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(id, (clone, token.clone()));
        Some(id)
    }

    fn deregister(&self, id: usize) {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&id);
    }

    fn shutdown_all(&self) {
        let map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (stream, token) in map.values() {
            token.cancel();
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Enforces the **total** per-message read budget
/// ([`ServeConfig::read_timeout`]): before every `read` the socket
/// timeout is shrunk to whatever remains of the budget, so a slow-loris
/// peer trickling one byte per poll cannot reset the clock — the whole
/// request must arrive within the budget or the read errors out and the
/// connection is dropped. A fresh reader is built per message, so the
/// budget also reaps connections that go idle between requests. The
/// metrics exporter reads each request head through one too.
pub(crate) struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    budget: Option<Duration>,
    started: Option<Instant>,
}

impl<'a> DeadlineReader<'a> {
    pub(crate) fn new(stream: &'a TcpStream, budget: Option<Duration>) -> Self {
        DeadlineReader {
            stream,
            budget,
            started: None,
        }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(budget) = self.budget {
            let started = *self.started.get_or_insert_with(Instant::now);
            let Some(remaining) = budget
                .checked_sub(started.elapsed())
                .filter(|d| !d.is_zero())
            else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "per-message read budget exhausted",
                ));
            };
            let _ = self.stream.set_read_timeout(Some(remaining));
        }
        (&mut &*self.stream).read(buf)
    }
}

impl Shared {
    /// `true` while the load picture says to shed the optional rungs.
    fn degraded(&self) -> bool {
        self.inflight
            .load(Ordering::Relaxed)
            .saturating_add(active_jobs())
            >= self.config.degrade_threshold
    }
}

/// RAII admission-window slot: holds one `inflight` unit.
struct InflightSlot<'a>(&'a AtomicUsize);

impl<'a> InflightSlot<'a> {
    /// Takes a slot unless the window is full.
    fn acquire(window: &'a AtomicUsize, max: usize) -> Option<Self> {
        let prior = window.fetch_add(1, Ordering::AcqRel);
        if prior >= max {
            window.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(InflightSlot(window))
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running codec service. Dropping the handle calls
/// [`shutdown`](Server::shutdown).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listeners and starts the acceptor + handler pool.
    ///
    /// Bind to port `0` for an ephemeral port and read the real one back
    /// from [`addr`](Server::addr) — that is how every test and the CI
    /// smoke run avoid port collisions.
    ///
    /// # Errors
    ///
    /// Socket bind failures only; a bad tenant config is rejected
    /// earlier, by [`parse_tenants`](crate::tenant::parse_tenants).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let http_listener = if config.http {
            let l = TcpListener::bind(&config.http_addr)?;
            Some(l)
        } else {
            None
        };
        let http_addr = match &http_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        // `decode_threads = 0` defers to the engine default
        // (`NINEC_THREADS`, else available parallelism).
        let threads = (config.decode_threads > 0).then_some(config.decode_threads);
        let mut builder = ninec::Engine::builder()
            .segment_bits(config.segment_bits)
            .parity(config.parity.0, config.parity.1);
        if let Some(threads) = threads {
            builder = builder.threads(threads);
        }
        let engine = builder.build_shared();
        // Open the hosted archive before accepting anything: a corrupt
        // or bombed epoch index refuses startup with a typed error
        // rather than failing every range request later.
        let archive = match &config.archive {
            Some(path) => Some(Archive::open(path, &engine).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}"))
            })?),
            None => None,
        };
        let tenants = TenantRegistry::new(config.tenants.clone(), threads);
        let shared = Arc::new(Shared {
            config,
            engine,
            tenants,
            stats: Stats::default(),
            inflight: AtomicUsize::new(0),
            stop: Arc::new(AtomicBool::new(false)),
            conns: ConnTable::default(),
            archive,
        });

        let queue = shared.config.queue_depth.max(1);
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue);
        let rx = Arc::new(Mutex::new(rx));

        let mut handlers = Vec::new();
        for worker in 0..shared.config.handler_threads.max(1) {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("ninec-serve-h{worker}"))
                    .spawn(move || handler_loop(&shared, &rx))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ninec-serve-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener, &tx))?
        };
        let http = match http_listener {
            Some(listener) => Some(http::spawn(listener, Arc::clone(&shared.stop))?),
            None => None,
        };

        Ok(Server {
            shared,
            addr,
            http_addr,
            acceptor: Some(acceptor),
            handlers,
            http,
        })
    }

    /// The bound wire-protocol address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` + `/trace` HTTP address, when enabled.
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// A point-in-time copy of the service counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Stops accepting, drains the handler pool and joins every thread.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Force-close live connections so handlers blocked mid-read
        // return now rather than after the read timeout, then unblock
        // `accept` with a throwaway connection; ignore failures (the
        // listener may already be gone).
        self.shared.conns.shutdown_all();
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // The acceptor owned the queue sender; with it gone the handler
        // pool drains whatever was queued and exits on the disconnect.
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
        if let Some(addr) = self.http_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(handle) = self.http.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Acceptor: accept, count, enqueue — or refuse with `Busy` when the
/// bounded queue is full.
fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &SyncSender<TcpStream>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        Stats::tick(&shared.stats.connections, "ninec.serve.connections");
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                Stats::tick(&shared.stats.busy, "ninec.serve.busy");
                let _ = wire::write_response(
                    &mut stream,
                    Status::Busy,
                    0,
                    b"connection queue full; retry later",
                );
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

/// Handler: pull connections off the queue until the acceptor hangs up.
fn handler_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        let next = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        match next {
            Ok(stream) => handle_connection(shared, stream),
            Err(_) => break,
        }
    }
}

/// One connection's request loop.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Per-connection cancel token: tripped by shutdown (via the conn
    // table) or a writer-side error (the peer is gone — no point
    // finishing its decode), reclaiming workers at the next segment
    // boundary.
    let conn_token = CancelToken::new();
    // RAII table entry so shutdown can cancel + force-close this
    // connection.
    struct ConnGuard<'a>(&'a ConnTable, Option<usize>);
    impl Drop for ConnGuard<'_> {
        fn drop(&mut self) {
            if let Some(id) = self.1 {
                self.0.deregister(id);
            }
        }
    }
    let _conn = ConnGuard(&shared.conns, shared.conns.register(&stream, &conn_token));
    let mut tenant = shared.tenants.default_tenant();
    // Whether the HELLO negotiated the `deadline` capability; once set,
    // every non-HELLO body carries a `[deadline_ms u32 le]` prefix.
    let mut deadlines = false;
    let max = shared.config.max_message_bytes;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let mut reader = DeadlineReader::new(&stream, shared.config.read_timeout);
        let (op, body) = match wire::read_request(&mut reader, max) {
            Ok(Some(message)) => message,
            // Clean close, torn frame, timeout, or protocol garbage: a
            // best-effort typed refusal, then hang up either way.
            Ok(None) => return,
            Err(wire::WireError::Io(_)) | Err(wire::WireError::Truncated) => return,
            Err(e) => {
                let _ = wire::write_response(
                    &mut stream,
                    Status::BadRequest,
                    0,
                    e.to_string().as_bytes(),
                );
                return;
            }
        };
        Stats::tick(&shared.stats.requests, "ninec.serve.requests");

        // HELLO re-binds the connection's tenant and negotiates
        // capabilities; it skips admission (no codec work).
        if op == Op::Hello {
            let text = String::from_utf8_lossy(&body);
            let mut words = text.split_whitespace();
            let name = words.next().unwrap_or_default();
            let wants_deadline = words.any(|cap| cap == wire::CAP_DEADLINE);
            let (status, reply) = match shared.tenants.lookup(name) {
                Some(found) => {
                    tenant = found;
                    deadlines = wants_deadline;
                    let mut greeting = format!(
                        "ninec-serve/{} proto {} tenant {}",
                        env!("CARGO_PKG_VERSION"),
                        wire::PROTOCOL_VERSION,
                        tenant.name()
                    );
                    if deadlines {
                        greeting.push_str(" caps ");
                        greeting.push_str(wire::CAP_DEADLINE);
                    }
                    (Status::Ok, greeting)
                }
                None => {
                    Stats::tick(&shared.stats.failed, "ninec.serve.failed");
                    (Status::BadRequest, format!("unknown tenant `{name}`"))
                }
            };
            if status == Status::Ok {
                Stats::tick(&shared.stats.ok, "ninec.serve.ok");
            }
            if wire::write_response(&mut stream, status, 0, reply.as_bytes()).is_err() {
                conn_token.cancel();
                return;
            }
            continue;
        }

        // On negotiated connections every non-HELLO body is prefixed
        // with the request's deadline budget (0 = none).
        let (client_ms, body) = if deadlines {
            match wire::split_deadline(&body) {
                Some((ms, rest)) => (ms, rest),
                None => {
                    let _ = wire::write_response(
                        &mut stream,
                        Status::BadRequest,
                        0,
                        b"missing [deadline_ms u32] prefix on negotiated connection",
                    );
                    return;
                }
            }
        } else {
            (0, &body[..])
        };
        let client_budget = (client_ms > 0).then(|| Duration::from_millis(u64::from(client_ms)));
        let budget = match (client_budget, shared.config.max_request_time) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (one, other) => one.or(other),
        };
        let cancel = conn_token.child_with_deadline(budget.map(|d| Instant::now() + d));

        let (status, flags, reply) = admit_and_dispatch(shared, &tenant, op, body, &cancel);
        match status {
            Status::Ok => Stats::tick(&shared.stats.ok, "ninec.serve.ok"),
            Status::Partial => Stats::tick(&shared.stats.partial, "ninec.serve.partial"),
            Status::Busy => Stats::tick(&shared.stats.busy, "ninec.serve.busy"),
            Status::RateLimited => {
                Stats::tick(&shared.stats.rate_limited, "ninec.serve.rate_limited");
            }
            Status::DeadlineExceeded => {
                Stats::tick(
                    &shared.stats.deadline_exceeded,
                    "ninec.serve.deadline_exceeded",
                );
            }
            _ => Stats::tick(&shared.stats.failed, "ninec.serve.failed"),
        }
        if wire::write_response(&mut stream, status, flags, &reply).is_err() {
            conn_token.cancel();
            return;
        }
        let _ = stream.flush();
    }
}

/// The three admission gates, then the verb dispatch — wrapped in
/// `catch_unwind` so a handler bug (or an armed fail point that slips
/// past the executor's own panic boundary) degrades to a typed `Failed`
/// response instead of killing the handler thread other tenants share.
fn admit_and_dispatch(
    shared: &Shared,
    tenant: &Arc<Tenant>,
    op: Op,
    body: &[u8],
    cancel: &CancelToken,
) -> (Status, u8, Vec<u8>) {
    if !tenant.try_admit() {
        return (
            Status::RateLimited,
            0,
            format!("tenant `{}` is over its request rate", tenant.name()).into_bytes(),
        );
    }
    let Some(_slot) = InflightSlot::acquire(&shared.inflight, shared.config.max_inflight) else {
        return (
            Status::Busy,
            0,
            b"admission window full; retry later".to_vec(),
        );
    };
    let degraded = shared.degraded();
    let flags = if degraded { wire::FLAG_DEGRADED } else { 0 };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dispatch(shared, tenant, op, body, degraded, cancel)
    }));
    match outcome {
        Ok((status, body)) => (status, flags, body),
        Err(_) => (
            Status::Failed,
            flags,
            b"internal error: request handler panicked".to_vec(),
        ),
    }
}

/// Verb dispatch. Every branch returns a typed status — hostile bodies
/// become `BadRequest`/`Failed`, never a panic.
fn dispatch(
    shared: &Shared,
    tenant: &Arc<Tenant>,
    op: Op,
    body: &[u8],
    degraded: bool,
    cancel: &CancelToken,
) -> (Status, Vec<u8>) {
    match op {
        Op::Hello => (Status::BadRequest, b"hello handled upstream".to_vec()),
        Op::Compress => compress(shared, body),
        Op::Decode => {
            let Some((&policy_byte, frame)) = body.split_first() else {
                return (Status::BadRequest, b"empty decode body".to_vec());
            };
            let Some(policy) = wire::policy_from_byte(policy_byte) else {
                return (
                    Status::BadRequest,
                    format!("unknown policy byte {policy_byte}").into_bytes(),
                );
            };
            decode(shared, tenant, frame, policy, degraded, cancel)
        }
        Op::Repair => decode(
            shared,
            tenant,
            body,
            ninec::Policy::Repair,
            degraded,
            cancel,
        ),
        Op::Info => info(tenant, body),
        Op::ArchiveRange => archive_range(shared, body),
    }
}

/// `ARCHIVE_RANGE`: `[frame u32][start u64][len u64]` → trit text from
/// the hosted archive, reading only the segments the range touches. Bad
/// coordinates are the client's fault (`BadRequest`); rot and decode
/// failures are the archive's (`Failed`); the store going unreadable
/// underneath us is `Io`.
fn archive_range(shared: &Shared, body: &[u8]) -> (Status, Vec<u8>) {
    let Some(archive) = shared.archive.as_ref() else {
        return (
            Status::BadRequest,
            b"no archive hosted (start the server with an archive path)".to_vec(),
        );
    };
    let Some((frame, start, len)) = wire::split_archive_range(body) else {
        return (
            Status::BadRequest,
            b"archive-range body needs [frame u32][start u64][len u64]".to_vec(),
        );
    };
    let (Ok(start), Ok(len)) = (usize::try_from(start), usize::try_from(len)) else {
        return (
            Status::BadRequest,
            b"range does not fit this server's address space".to_vec(),
        );
    };
    match archive.decode_range(frame as usize, start, len) {
        Ok(trits) => (Status::Ok, trits.to_string().into_bytes()),
        Err(e @ (ArchiveError::FrameOutOfRange { .. } | ArchiveError::RangeOutOfBounds { .. })) => {
            (Status::BadRequest, e.to_string().into_bytes())
        }
        Err(ArchiveError::Io { what, source }) => {
            (Status::Io, format!("{what}: {source}").into_bytes())
        }
        Err(e) => (Status::Failed, e.to_string().into_bytes()),
    }
}

/// `COMPRESS`: `[k u16 le][trit text]` → frame bytes.
fn compress(shared: &Shared, body: &[u8]) -> (Status, Vec<u8>) {
    if body.len() < 2 {
        return (
            Status::BadRequest,
            b"compress body needs [k u16][trits]".to_vec(),
        );
    }
    let k = usize::from(u16::from_le_bytes([body[0], body[1]]));
    let Ok(text) = std::str::from_utf8(&body[2..]) else {
        return (Status::BadRequest, b"trit text is not UTF-8".to_vec());
    };
    let stream: TritVec = match text.parse() {
        Ok(stream) => stream,
        Err(e) => {
            return (
                Status::BadRequest,
                format!("bad trit text: {e}").into_bytes(),
            )
        }
    };
    match shared.engine.encode_frame(k, &stream) {
        Ok(frame) => (Status::Ok, frame),
        Err(e) => (Status::Failed, e.to_string().into_bytes()),
    }
}

/// `DECODE`/`REPAIR`: run the ladder under the tenant's session. In
/// degraded mode the policy collapses to strict — the shed counter ticks
/// once per downgraded request.
fn decode(
    shared: &Shared,
    tenant: &Arc<Tenant>,
    frame: &[u8],
    requested: ninec::Policy,
    degraded: bool,
    cancel: &CancelToken,
) -> (Status, Vec<u8>) {
    let policy = if degraded && requested != ninec::Policy::Strict {
        Stats::tick(&shared.stats.shed, "ninec.serve.shed");
        ninec::Policy::Strict
    } else {
        requested
    };
    match tenant
        .session_with_cancel(cancel.clone())
        .decode_frame(frame, policy)
    {
        Ok(outcome) => {
            let damaged = outcome
                .report
                .as_ref()
                .map(|report| report.damaged.len())
                .unwrap_or(0);
            let damaged = u32::try_from(damaged).unwrap_or(u32::MAX);
            let text = outcome.trits.to_string();
            let mut body = Vec::with_capacity(5 + text.len());
            body.push(wire::rung_to_byte(outcome.rung));
            body.extend_from_slice(&damaged.to_le_bytes());
            body.extend_from_slice(text.as_bytes());
            let status = if outcome.is_lossless() {
                Status::Ok
            } else {
                Status::Partial
            };
            (status, body)
        }
        // A tripped token — client deadline, server ceiling, or the
        // connection dying mid-decode — is a typed timeout, not a decode
        // failure: the frame itself was never judged.
        Err(e @ (ninec::DecodeError::Cancelled | ninec::DecodeError::DeadlineExceeded)) => {
            ninec::metrics::publish_count("ninec.serve.cancelled_jobs", 1);
            (Status::DeadlineExceeded, e.to_string().into_bytes())
        }
        Err(e) => (Status::Failed, e.to_string().into_bytes()),
    }
}

/// `INFO`: one header/CRC scan pass, no payload decode.
fn info(tenant: &Arc<Tenant>, frame: &[u8]) -> (Status, Vec<u8>) {
    match tenant.session().plan(frame) {
        Ok(plan) => {
            let (g, r) = (plan.parity_g(), plan.parity_r());
            let parity = if r == 0 {
                "none".to_string()
            } else {
                format!("{g}:{r}")
            };
            let text = format!(
                "version: {}\nsegments: {} ({} intact)\nsource_trits: {}\nparity: {}\ntable_lengths: {:?}\n",
                plan.version(),
                plan.entries().len(),
                plan.intact_count(),
                plan.source_len(),
                parity,
                plan.table_lengths(),
            );
            (Status::Ok, text.into_bytes())
        }
        Err(e) => (Status::Failed, e.to_string().into_bytes()),
    }
}
