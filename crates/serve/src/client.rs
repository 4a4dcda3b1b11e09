//! Blocking client for the codec service's wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues requests in lock
//! step (the protocol has no pipelining — each request is answered
//! before the next is read). The typed surface mirrors the wire verbs:
//! [`hello`](Client::hello), [`compress`](Client::compress),
//! [`decode`](Client::decode), [`repair`](Client::repair),
//! [`info`](Client::info). Load-shed refusals (`Busy`, `RateLimited`)
//! and codec failures surface as [`ClientError::Server`] carrying the
//! wire [`Status`] so callers can map them straight onto the CLI
//! exit-code contract.
//!
//! Sockets always carry timeouts ([`ClientOptions`]: connect, read,
//! write — with sane defaults), so a blackholed server surfaces as a
//! typed [`ClientError::Io`] timeout instead of a hung thread. A client
//! built with a [`deadline`](ClientOptions::deadline) negotiates the
//! wire's `deadline` capability at HELLO and prefixes each request with
//! its budget; servers answer overruns with
//! [`Status::DeadlineExceeded`].
//!
//! [`RetryingClient`] layers a typed retry policy on top: transport
//! errors and `Busy`/`RateLimited`/`DeadlineExceeded` refusals retry
//! with decorrelated-jitter backoff (reconnecting and re-HELLOing as
//! needed); decode failures (`Failed`, `BadRequest`) never retry.

use crate::wire::{self, Op, Response, Status, WireError, DEFAULT_MAX_MESSAGE_BYTES};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Typed client-side failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// Connecting or talking to the socket failed.
    Io(std::io::Error),
    /// The server's bytes did not parse as protocol frames, or it hung
    /// up mid-conversation.
    Protocol(WireError),
    /// The server answered with a non-success status.
    Server {
        /// The wire status (mirrors the CLI exit-code contract).
        status: Status,
        /// The server was in degraded (strict-only) mode.
        degraded: bool,
        /// The server's error text.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server {
                status,
                degraded,
                message,
            } => {
                let suffix = if *degraded { " (degraded)" } else { "" };
                write!(f, "server refused ({status:?}{suffix}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            ClientError::Server { .. } => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Protocol(e)
    }
}

/// A decoded frame as the service returned it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeReply {
    /// The ladder rung that produced the stream.
    pub rung: ninec::RungKind,
    /// Damaged-segment count from the server's damage map (0 when the
    /// strict rung answered).
    pub damaged: u32,
    /// The recovered trit stream, as text.
    pub trits: String,
    /// The server answered in degraded (strict-only) mode.
    pub degraded: bool,
    /// `true` when the recovery was lossy (wire status `Partial`).
    pub partial: bool,
}

/// Connection knobs for [`Client::connect_with`]. The [`Default`]
/// values are deliberately finite — a client never blocks forever on a
/// dead peer unless explicitly configured to.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// TCP connect timeout (default 10s; `None` blocks on the OS).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout per `read` call (default 30s).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout per `write` call (default 30s).
    pub write_timeout: Option<Duration>,
    /// Caps how large a single response the client will buffer.
    pub max_message_bytes: usize,
    /// Per-request server-side deadline budget. `Some` makes
    /// [`hello`](Client::hello) negotiate the wire's `deadline`
    /// capability and every subsequent request carry this budget.
    pub deadline: Option<Duration>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_message_bytes: DEFAULT_MAX_MESSAGE_BYTES,
            deadline: None,
        }
    }
}

/// One connection to a codec service.
pub struct Client {
    stream: TcpStream,
    max_message_bytes: usize,
    deadline: Option<Duration>,
    negotiated: bool,
}

impl Client {
    /// Connects with [`ClientOptions::default`] (finite socket
    /// timeouts). Follow with [`hello`](Client::hello) to bind a tenant;
    /// unbound connections run as the server's `default` tenant.
    ///
    /// # Errors
    ///
    /// Connection failures only.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Self::connect_with(addr, &ClientOptions::default())
    }

    /// Connects with explicit [`ClientOptions`]. Every resolved address
    /// is tried in order; the last failure is returned when none accept.
    ///
    /// # Errors
    ///
    /// Connection failures (including connect timeout) only.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        options: &ClientOptions,
    ) -> Result<Client, ClientError> {
        let mut last_err = None;
        let mut connected = None;
        for candidate in addr.to_socket_addrs()? {
            let attempt = match options.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(&candidate, timeout),
                None => TcpStream::connect(candidate),
            };
            match attempt {
                Ok(stream) => {
                    connected = Some(stream);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some(stream) = connected else {
            return Err(ClientError::Io(last_err.unwrap_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to nothing",
                )
            })));
        };
        stream.set_read_timeout(options.read_timeout)?;
        stream.set_write_timeout(options.write_timeout)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            max_message_bytes: options.max_message_bytes,
            deadline: options.deadline,
            negotiated: false,
        })
    }

    /// Changes the per-request deadline budget. Takes effect on the next
    /// request; negotiation still happens at [`hello`](Client::hello),
    /// so setting a deadline on a connection that never negotiated the
    /// capability sends nothing extra.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// One request/response exchange; the protocol floor the typed
    /// verbs build on. Public so tests can send malformed bodies. On a
    /// deadline-negotiated connection every non-HELLO request is
    /// prefixed with the current budget (`0` = none).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`]/[`ClientError::Protocol`] on transport
    /// problems — every in-protocol refusal comes back as a [`Response`].
    pub fn roundtrip(&mut self, op: Op, body: &[u8]) -> Result<Response, ClientError> {
        if self.negotiated && op != Op::Hello {
            let ms = self
                .deadline
                .map(|d| u32::try_from(d.as_millis()).unwrap_or(u32::MAX))
                .unwrap_or(0);
            let mut framed = Vec::with_capacity(4 + body.len());
            framed.extend_from_slice(&ms.to_le_bytes());
            framed.extend_from_slice(body);
            wire::write_request(&mut self.stream, op, &framed)?;
        } else {
            wire::write_request(&mut self.stream, op, body)?;
        }
        match wire::read_response(&mut self.stream, self.max_message_bytes)? {
            Some(response) => Ok(response),
            None => Err(ClientError::Protocol(WireError::Truncated)),
        }
    }

    /// Maps refusal statuses to [`ClientError::Server`].
    fn expect_payload(response: Response) -> Result<Response, ClientError> {
        if response.status.carries_payload() {
            Ok(response)
        } else {
            Err(ClientError::Server {
                status: response.status,
                degraded: response.degraded(),
                message: response.text(),
            })
        }
    }

    /// Binds this connection to `tenant`; returns the server greeting.
    /// When a [`deadline`](ClientOptions::deadline) is configured the
    /// HELLO also requests the wire's `deadline` capability — the
    /// connection switches to deadline-prefixed requests only if the
    /// greeting echoes it back (old servers leave the client unchanged).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`Status::BadRequest`] for an
    /// unknown tenant (the connection stays usable on its old binding).
    pub fn hello(&mut self, tenant: &str) -> Result<String, ClientError> {
        let body = if self.deadline.is_some() {
            format!("{tenant} {}", wire::CAP_DEADLINE)
        } else {
            tenant.to_string()
        };
        let response = self.roundtrip(Op::Hello, body.as_bytes())?;
        let greeting = Self::expect_payload(response).map(|r| r.text())?;
        self.negotiated = greeting
            .split_once(" caps ")
            .is_some_and(|(_, caps)| caps.split_whitespace().any(|cap| cap == wire::CAP_DEADLINE));
        Ok(greeting)
    }

    /// Compresses `trits` (text over `{0,1,X}`) at block size `k` into a
    /// self-describing `9CSF` frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on refusals and codec failures.
    pub fn compress(&mut self, k: u16, trits: &str) -> Result<Vec<u8>, ClientError> {
        let mut body = Vec::with_capacity(2 + trits.len());
        body.extend_from_slice(&k.to_le_bytes());
        body.extend_from_slice(trits.as_bytes());
        let response = self.roundtrip(Op::Compress, &body)?;
        Self::expect_payload(response).map(|r| r.body)
    }

    /// Decodes a frame under `policy`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on refusals and codec failures; a lossy
    /// salvage is **not** an error — check [`DecodeReply::partial`].
    pub fn decode(
        &mut self,
        frame: &[u8],
        policy: ninec::Policy,
    ) -> Result<DecodeReply, ClientError> {
        let mut body = Vec::with_capacity(1 + frame.len());
        body.push(wire::policy_to_byte(policy));
        body.extend_from_slice(frame);
        let response = self.roundtrip(Op::Decode, &body)?;
        Self::parse_decode_reply(response)
    }

    /// Sugar for [`decode`](Client::decode) with the repair policy.
    ///
    /// # Errors
    ///
    /// Same as [`decode`](Client::decode).
    pub fn repair(&mut self, frame: &[u8]) -> Result<DecodeReply, ClientError> {
        let response = self.roundtrip(Op::Repair, frame)?;
        Self::parse_decode_reply(response)
    }

    /// Summarises a frame (one header/CRC scan, no payload decode).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on refusals and file-level damage.
    pub fn info(&mut self, frame: &[u8]) -> Result<String, ClientError> {
        let response = self.roundtrip(Op::Info, frame)?;
        Self::expect_payload(response).map(|r| r.text())
    }

    /// Decodes `len` trits starting at `start` from frame `frame` of
    /// the server's hosted `9CA` archive; returns the trit text. The
    /// server reads only the segments the range touches.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`Status::BadRequest`] when no
    /// archive is hosted or the coordinates are out of range, `Failed`
    /// for rot or decode failures.
    pub fn archive_range(
        &mut self,
        frame: u32,
        start: u64,
        len: u64,
    ) -> Result<String, ClientError> {
        let body = wire::encode_archive_range(frame, start, len);
        let response = self.roundtrip(Op::ArchiveRange, &body)?;
        Self::expect_payload(response).map(|r| r.text())
    }

    fn parse_decode_reply(response: Response) -> Result<DecodeReply, ClientError> {
        let response = Self::expect_payload(response)?;
        let partial = response.status == Status::Partial;
        let degraded = response.degraded();
        if response.body.len() < 5 {
            return Err(ClientError::Protocol(WireError::Truncated));
        }
        let rung = wire::rung_from_byte(response.body[0]).ok_or(ClientError::Protocol(
            WireError::UnknownStatus(response.body[0]),
        ))?;
        let damaged = u32::from_le_bytes([
            response.body[1],
            response.body[2],
            response.body[3],
            response.body[4],
        ]);
        let trits = String::from_utf8_lossy(&response.body[5..]).into_owned();
        Ok(DecodeReply {
            rung,
            damaged,
            trits,
            degraded,
            partial,
        })
    }
}

/// When and how [`RetryingClient`] retries.
///
/// Backoff is **decorrelated jitter**: each sleep is drawn uniformly
/// from `[base, prev * 3]` and clamped to `cap`, so synchronized
/// clients desynchronize instead of hammering the server in lockstep.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries *per request* after the first attempt (default 3).
    pub max_retries: u32,
    /// Backoff floor (default 10ms).
    pub base: Duration,
    /// Backoff ceiling (default 1s).
    pub cap: Duration,
    /// Overall budget for one request across all attempts and sleeps;
    /// the next retry is abandoned once it cannot fit (default `None`).
    pub total_deadline: Option<Duration>,
    /// Jitter PRNG seed; `0` picks a fixed default. Deterministic so
    /// tests and benches replay identical backoff schedules.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            total_deadline: None,
            seed: 0,
        }
    }
}

/// A [`Client`] wrapper that retries retryable failures with
/// decorrelated-jitter backoff.
///
/// The retryable/non-retryable split is typed, not heuristic:
///
/// - **retry** — transport errors ([`ClientError::Io`], torn frames as
///   [`ClientError::Protocol`]) after reconnecting and re-HELLOing, and
///   the load-shed refusals `Busy`/`RateLimited` plus the typed timeout
///   `DeadlineExceeded`;
/// - **never retry** — `Failed`/`BadRequest`: the server *judged* the
///   request and the same bytes will fail the same way.
///
/// The connection is lazy: the first request (or retry after a
/// transport error) connects and re-binds the remembered tenant, so a
/// server restart mid-session heals transparently.
pub struct RetryingClient {
    addrs: Vec<SocketAddr>,
    options: ClientOptions,
    policy: RetryPolicy,
    tenant: Option<String>,
    client: Option<Client>,
    retries: u64,
    prev_ms: u64,
    rng: u64,
}

impl RetryingClient {
    /// Resolves `addr` and remembers the connection recipe; nothing is
    /// dialed until the first request.
    ///
    /// # Errors
    ///
    /// Address resolution failures only.
    pub fn new(
        addr: impl ToSocketAddrs,
        options: ClientOptions,
        policy: RetryPolicy,
    ) -> Result<RetryingClient, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )));
        }
        let base_ms = u64::try_from(policy.base.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let rng = if policy.seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            policy.seed
        };
        Ok(RetryingClient {
            addrs,
            options,
            policy,
            tenant: None,
            client: None,
            retries: 0,
            prev_ms: base_ms,
            rng,
        })
    }

    /// Total retries performed over this client's lifetime (first
    /// attempts are not counted).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Binds every current and future connection to `tenant`.
    ///
    /// # Errors
    ///
    /// As [`Client::hello`], after retries are exhausted.
    pub fn hello(&mut self, tenant: &str) -> Result<String, ClientError> {
        self.tenant = Some(tenant.to_string());
        let tenant = tenant.to_string();
        self.with_retry(|client| client.hello(&tenant))
    }

    /// As [`Client::compress`], with retries.
    ///
    /// # Errors
    ///
    /// As [`Client::compress`], after retries are exhausted.
    pub fn compress(&mut self, k: u16, trits: &str) -> Result<Vec<u8>, ClientError> {
        self.with_retry(|client| client.compress(k, trits))
    }

    /// As [`Client::decode`], with retries.
    ///
    /// # Errors
    ///
    /// As [`Client::decode`], after retries are exhausted.
    pub fn decode(
        &mut self,
        frame: &[u8],
        policy: ninec::Policy,
    ) -> Result<DecodeReply, ClientError> {
        self.with_retry(|client| client.decode(frame, policy))
    }

    /// As [`Client::repair`], with retries.
    ///
    /// # Errors
    ///
    /// As [`Client::repair`], after retries are exhausted.
    pub fn repair(&mut self, frame: &[u8]) -> Result<DecodeReply, ClientError> {
        self.with_retry(|client| client.repair(frame))
    }

    /// As [`Client::info`], with retries.
    ///
    /// # Errors
    ///
    /// As [`Client::info`], after retries are exhausted.
    pub fn info(&mut self, frame: &[u8]) -> Result<String, ClientError> {
        self.with_retry(|client| client.info(frame))
    }

    /// As [`Client::archive_range`], with retries.
    ///
    /// # Errors
    ///
    /// As [`Client::archive_range`], after retries are exhausted.
    pub fn archive_range(
        &mut self,
        frame: u32,
        start: u64,
        len: u64,
    ) -> Result<String, ClientError> {
        self.with_retry(|client| client.archive_range(frame, start, len))
    }

    /// `true` for failures where a retry can plausibly change the
    /// answer.
    fn retryable(err: &ClientError) -> bool {
        match err {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            ClientError::Server { status, .. } => matches!(
                status,
                Status::Busy | Status::RateLimited | Status::DeadlineExceeded
            ),
        }
    }

    /// Connects (and re-HELLOs) if there is no live connection.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.client.is_some() {
            return Ok(());
        }
        let mut client = Client::connect_with(&self.addrs[..], &self.options)?;
        if let Some(tenant) = &self.tenant {
            client.hello(tenant)?;
        }
        self.client = Some(client);
        Ok(())
    }

    /// xorshift64 — cheap, deterministic, good enough for jitter.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The next decorrelated-jitter sleep.
    fn next_backoff(&mut self) -> Duration {
        let base_ms = u64::try_from(self.policy.base.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let cap_ms = u64::try_from(self.policy.cap.as_millis())
            .unwrap_or(u64::MAX)
            .max(base_ms);
        let upper_ms = self.prev_ms.saturating_mul(3).max(base_ms);
        let span = upper_ms - base_ms;
        let ms = if span == 0 {
            base_ms
        } else {
            base_ms + self.next_rand() % (span + 1)
        };
        let ms = ms.min(cap_ms);
        self.prev_ms = ms;
        Duration::from_millis(ms)
    }

    /// The retry loop every typed verb runs through.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            let result = match self.ensure_connected() {
                Ok(()) => match self.client.as_mut() {
                    Some(client) => op(client),
                    None => Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::NotConnected,
                        "reconnect lost the connection",
                    ))),
                },
                Err(e) => Err(e),
            };
            let err = match result {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            // A transport error leaves the stream in an unknown state;
            // drop it so the next attempt reconnects.
            if matches!(err, ClientError::Io(_) | ClientError::Protocol(_)) {
                self.client = None;
            }
            if !Self::retryable(&err) || attempt >= self.policy.max_retries {
                return Err(err);
            }
            let sleep = self.next_backoff();
            if let Some(total) = self.policy.total_deadline {
                if started.elapsed().saturating_add(sleep) >= total {
                    return Err(err);
                }
            }
            attempt += 1;
            self.retries += 1;
            ninec::metrics::publish_count(ninec_obs::catalogue::SERVE_CLIENT_RETRIES, 1);
            std::thread::sleep(sleep);
        }
    }
}

/// One-shot `GET` against the exporter listener; returns the body.
/// Here so the CLI's `client metrics` verb (and the CI smoke) need no
/// external HTTP tooling.
///
/// # Errors
///
/// Connection failures, or a response that is not `200 OK`.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> Result<String, ClientError> {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: ninec\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let Some((head, body)) = raw.split_once("\r\n\r\n") else {
        return Err(ClientError::Protocol(WireError::Truncated));
    };
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains("200") {
        return Err(ClientError::Server {
            status: Status::Failed,
            degraded: false,
            message: status_line.to_string(),
        });
    }
    Ok(body.to_string())
}
