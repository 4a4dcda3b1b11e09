//! `ninec-serve` — the 9C codec as a multi-tenant network service.
//!
//! Compression research artifacts usually stop at a CLI; production DFT
//! flows want the codec *behind* something — a box that ATE bridges,
//! regression farms and tooling can throw frames at concurrently without
//! each embedding the engine. This crate is that box, built on the same
//! plan/executor data plane the library exposes:
//!
//! - [`wire`] — a length-prefixed TCP protocol (compress / decode /
//!   info / repair) whose response statuses mirror the CLI exit-code
//!   contract, with typed `Busy`/`RateLimited` refusals on top;
//! - [`tenant`] — per-tenant [`DecodeLimits`](ninec::engine::DecodeLimits)
//!   quotas and token-bucket rate limiting, so one tenant's hostile or
//!   oversized frames exhaust *its* budget while everyone else decodes
//!   on;
//! - [`server`] — thread-per-core-style acceptor + bounded handler
//!   pool with admission control and graceful degradation: under load
//!   the service sheds the expensive repair/salvage rungs (answering
//!   strict-only, flagged `degraded`) before it refuses work outright;
//! - a minimal exporter listener serving Prometheus text on `/metrics`
//!   and a Chrome trace-event document of the decode flight recorder on
//!   `/trace` (plus `/healthz` for probes);
//! - [`client`] — a blocking typed client with socket timeouts,
//!   HELLO-negotiated per-request deadlines and a [`RetryingClient`]
//!   wrapper (decorrelated-jitter backoff, retryable/non-retryable
//!   split) — also backing the `ninec client` CLI verb and the CI smoke
//!   test;
//! - [`chaos`] — a std-only fault-injection TCP proxy (delay, throttle,
//!   torn writes, blackhole) that the chaos and soak test suites and the
//!   CI chaos smoke put in front of the server.
//!
//! Everything is `std`-only, in keeping with the workspace's
//! vendored-dependency discipline.
//!
//! ```no_run
//! use ninec_serve::{Client, ServeConfig, Server};
//!
//! let mut server = Server::start(ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let frame = client.compress(8, "0X0X00XX1111X11101X0")?;
//! let reply = client.decode(&frame, ninec::Policy::Strict)?;
//! assert_eq!(reply.trits.len(), 20);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
mod http;
pub mod server;
pub mod tenant;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosProxy};
pub use client::{Client, ClientError, ClientOptions, DecodeReply, RetryPolicy, RetryingClient};
pub use server::{Server, StatsSnapshot};
pub use tenant::{parse_tenants, Tenant, TenantConfig, TenantConfigError, TenantRegistry};
pub use wire::{Op, Response, Status, WireError};

use std::time::Duration;

/// Server configuration. [`Default`] binds ephemeral loopback ports and
/// picks conservative queueing knobs — tests and smoke runs can use it
/// unchanged and read the real ports back from the started server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Wire-protocol bind address (port `0` = ephemeral).
    pub addr: String,
    /// Whether to serve the `/metrics` + `/trace` HTTP listener.
    pub http: bool,
    /// HTTP exporter bind address (port `0` = ephemeral).
    pub http_addr: String,
    /// Handler threads consuming the connection queue.
    pub handler_threads: usize,
    /// Bounded depth of the accepted-connection queue; a full queue
    /// answers new connections with `Busy` (backpressure, not memory).
    pub queue_depth: usize,
    /// Admission window: concurrent requests allowed to decode.
    pub max_inflight: usize,
    /// When in-flight requests plus the executor's active-job tally
    /// reach this, repair/salvage requests are downgraded to strict and
    /// flagged `degraded`. `usize::MAX` (the default) never degrades.
    pub degrade_threshold: usize,
    /// Per-message size cap, both directions.
    pub max_message_bytes: usize,
    /// Engine worker threads per decode/encode (`0` = the engine
    /// default, `NINEC_THREADS` or available parallelism).
    pub decode_threads: usize,
    /// Segment size for the compress verb's encoder.
    pub segment_bits: usize,
    /// Parity geometry `(g, r)` for encoded frames; `r = 0` disables
    /// parity (v2 frames).
    pub parity: (u8, u8),
    /// Total per-message read budget on wire connections: an idle
    /// connection — or one trickling bytes slow-loris style — is dropped
    /// once a single request has taken this long to arrive. (Enforced as
    /// a shrinking per-read socket timeout, so trickled bytes cannot
    /// reset it.)
    pub read_timeout: Option<Duration>,
    /// Server-side ceiling on any single request's decode time. The
    /// effective deadline is `min(client deadline, max_request_time)`;
    /// work past it is cancelled at the next segment boundary and
    /// answered [`Status::DeadlineExceeded`]. `None` never expires.
    pub max_request_time: Option<Duration>,
    /// Tenant declarations (see [`tenant::parse_tenants`]); the
    /// unlimited `default` tenant always exists in addition.
    pub tenants: Vec<TenantConfig>,
    /// Path of a `9CA` archive to host for [`Op::ArchiveRange`]
    /// random-access range decodes. Opened (and its epoch index
    /// validated) at startup; `None` answers the verb with `BadRequest`.
    pub archive: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            http: true,
            http_addr: "127.0.0.1:0".to_string(),
            handler_threads: 4,
            queue_depth: 16,
            max_inflight: 8,
            degrade_threshold: usize::MAX,
            max_message_bytes: wire::DEFAULT_MAX_MESSAGE_BYTES,
            decode_threads: 0,
            segment_bits: 256,
            parity: (4, 1),
            read_timeout: Some(Duration::from_secs(60)),
            max_request_time: Some(Duration::from_secs(60)),
            tenants: Vec::new(),
            archive: None,
        }
    }
}
