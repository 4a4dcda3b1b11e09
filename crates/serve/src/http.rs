//! Minimal HTTP/1.1 exporter for the service's telemetry.
//!
//! A deliberately tiny vendored-in-place listener — `GET` only, one
//! request per connection, `Connection: close` — because the two
//! endpoints it serves are pull-based exporters, not an API:
//!
//! - `/metrics` — the [`ninec_obs`] registry rendered as Prometheus
//!   text exposition (includes the `ninec.serve.*` counters the server
//!   ticks per request);
//! - `/trace` — drains the flight recorder into a Chrome
//!   `chrome://tracing` / Perfetto trace-event document (JSON array);
//! - `/healthz` — `ok`, for liveness probes and the CI smoke.
//!
//! With runtime telemetry off (`ninec_obs::set_runtime_enabled(false)`)
//! both exporters still answer 200, with whatever was recorded before.

use crate::server::DeadlineReader;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Request-head ceiling: method + path + headers must fit in this many
/// bytes or the connection is dropped (no unbounded buffering here
/// either).
const MAX_REQUEST_HEAD: usize = 8 << 10;

/// Budget for reading one request head: a peer that trickles its head
/// cannot hold the one-thread exporter longer than this.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Spawns the exporter thread. It exits when `stop` is set *and* one
/// more connection arrives to unblock `accept` (the server's shutdown
/// sends that nudge).
pub(crate) fn spawn(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("ninec-serve-http".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let _ = serve_one(stream);
            }
        })
}

/// Reads one request head, within [`READ_TIMEOUT`] in all, and answers
/// it.
fn serve_one(mut stream: TcpStream) -> std::io::Result<()> {
    let mut reader = DeadlineReader::new(&stream, Some(READ_TIMEOUT));
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST_HEAD {
            return Ok(()); // oversized head: just hang up
        }
        match reader.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(()),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is served here\n",
        );
    }
    match path {
        "/metrics" => {
            let body = ninec_obs::snapshot().render_prometheus();
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/trace" => {
            let body = ninec_obs::render_chrome_trace(&ninec_obs::take_trace());
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        "/healthz" => respond(&mut stream, "200 OK", "text/plain; charset=utf-8", "ok\n"),
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics, /trace or /healthz\n",
        ),
    }
}

/// Writes one `Connection: close` response.
fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
