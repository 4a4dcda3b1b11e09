//! A std-only fault-injection TCP proxy for chaos-testing the service.
//!
//! [`ChaosProxy`] sits between a client and an upstream `ninec-serve`
//! listener and misbehaves on purpose, per connection:
//!
//! - **delay** — added latency before each forwarded chunk;
//! - **throttle** — forwarded bytes are paced to a bytes-per-second
//!   ceiling (slow networks, not broken ones);
//! - **torn write** — the server→client direction forwards a few bytes
//!   of the response stream, then closes both sockets mid-frame
//!   (clients see a truncated protocol frame);
//! - **blackhole** — bytes are read and discarded in both directions;
//!   nothing ever comes back (clients see a read timeout).
//!
//! Fault decisions are **deterministic**: each accepted connection's
//! fate is a pure function of [`ChaosConfig::seed`] and the connection
//! ordinal, so a failing chaos run replays byte-identically. The proxy
//! is used by the `chaos` and `soak` integration suites and the CI chaos
//! smoke; it lives in the library (not `tests/`) so all three share one
//! implementation.
//!
//! ```no_run
//! use ninec_serve::{ChaosConfig, ChaosProxy};
//!
//! let upstream: std::net::SocketAddr = "127.0.0.1:9000".parse()?;
//! let mut proxy = ChaosProxy::start(upstream, ChaosConfig {
//!     torn_write_permille: 100, // 10% of connections tear
//!     ..ChaosConfig::default()
//! })?;
//! let addr = proxy.addr(); // point clients here instead of upstream
//! proxy.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault mix for a [`ChaosProxy`]. [`Default`] injects nothing — a
/// transparent (if slightly slower) proxy.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Proxy bind address (port `0` = ephemeral).
    pub listen: String,
    /// Added latency before each forwarded chunk, both directions.
    pub delay: Duration,
    /// Forwarding pace ceiling in bytes/second (`0` = unlimited).
    pub throttle_bytes_per_sec: usize,
    /// Per-mille of connections whose server→client stream is torn:
    /// a handful of bytes are forwarded, then both sockets close.
    pub torn_write_permille: u16,
    /// Per-mille of connections that black-hole: bytes are swallowed in
    /// both directions and no reply ever arrives.
    pub blackhole_permille: u16,
    /// Seed for the deterministic per-connection fault decisions.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            listen: "127.0.0.1:0".to_string(),
            delay: Duration::ZERO,
            throttle_bytes_per_sec: 0,
            torn_write_permille: 0,
            blackhole_permille: 0,
            seed: 1,
        }
    }
}

/// What the dice said for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Clean,
    /// Forward `after` server→client bytes, then slam both sockets.
    Torn {
        after: usize,
    },
    Blackhole,
}

/// splitmix64 finalizer — a well-mixed pure hash, no state.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ChaosConfig {
    /// The deterministic fate of connection number `conn`.
    fn fate(&self, conn: u64) -> Fate {
        let h = mix(self.seed ^ mix(conn));
        let roll = (h % 1000) as u16;
        if roll < self.blackhole_permille {
            Fate::Blackhole
        } else if roll
            < self
                .blackhole_permille
                .saturating_add(self.torn_write_permille)
        {
            // Tear inside the first response's length prefix / status
            // byte, so even the smallest reply arrives truncated.
            Fate::Torn {
                after: 1 + (mix(h) % 4) as usize,
            }
        } else {
            Fate::Clean
        }
    }
}

/// A running fault-injection proxy. Dropping the handle calls
/// [`shutdown`](ChaosProxy::shutdown).
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pumps: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
}

/// Pump threads poll the stop flag at this cadence, so shutdown never
/// waits out a long socket timeout.
const POLL: Duration = Duration::from_millis(50);

impl ChaosProxy {
    /// Binds the listener and starts proxying to `upstream`. Bind to
    /// port `0` and read the real address back from
    /// [`addr`](ChaosProxy::addr).
    ///
    /// # Errors
    ///
    /// Socket bind failures only; upstream dial failures are
    /// per-connection (the client connection is simply dropped).
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let pumps = Arc::new(AtomicUsize::new(0));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let pumps = Arc::clone(&pumps);
            std::thread::Builder::new()
                .name("ninec-chaos-accept".to_string())
                .spawn(move || accept_loop(&listener, upstream, &config, &stop, &pumps))?
        };
        Ok(ChaosProxy {
            addr,
            stop,
            pumps,
            acceptor: Some(acceptor),
        })
    }

    /// The proxy's listen address — point clients here.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the acceptor and waits (bounded) for the
    /// pump threads to drain. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge `accept` so the acceptor notices the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Pumps poll the flag; give them a bounded grace period.
        for _ in 0..100 {
            if self.pumps.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(POLL);
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept, roll a fate, dial upstream, spawn the two pumps.
fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    config: &ChaosConfig,
    stop: &Arc<AtomicBool>,
    pumps: &Arc<AtomicUsize>,
) {
    let conns = AtomicU64::new(0);
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = conn else { continue };
        let fate = config.fate(conns.fetch_add(1, Ordering::Relaxed));
        let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) else {
            continue; // upstream down: drop the client connection
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        spawn_pump(
            &client,
            &server,
            Direction::ClientToServer,
            config,
            fate,
            stop,
            pumps,
        );
        spawn_pump(
            &server,
            &client,
            Direction::ServerToClient,
            config,
            fate,
            stop,
            pumps,
        );
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    ClientToServer,
    ServerToClient,
}

/// RAII tally of live pump threads, so shutdown can wait for drain.
struct PumpGuard(Arc<AtomicUsize>);

impl Drop for PumpGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn spawn_pump(
    from: &TcpStream,
    to: &TcpStream,
    direction: Direction,
    config: &ChaosConfig,
    fate: Fate,
    stop: &Arc<AtomicBool>,
    pumps: &Arc<AtomicUsize>,
) {
    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
        return;
    };
    pumps.fetch_add(1, Ordering::SeqCst);
    let guard = PumpGuard(Arc::clone(pumps));
    let config = config.clone();
    let stop = Arc::clone(stop);
    // Detached on purpose: pumps poll `stop` and exit within one POLL
    // interval of shutdown; the proxy handle waits for the tally.
    let spawned = std::thread::Builder::new()
        .name("ninec-chaos-pump".to_string())
        .spawn(move || {
            let _guard = guard;
            pump(&from, &to, direction, &config, fate, &stop);
            // One side closing ends the conversation both ways.
            let _ = from.shutdown(std::net::Shutdown::Both);
            let _ = to.shutdown(std::net::Shutdown::Both);
        });
    // Spawn failure: the moved guard already untallied via drop.
    drop(spawned);
}

/// Copy bytes `from` → `to` until EOF, error, stop, or the fate says
/// otherwise.
fn pump(
    from: &TcpStream,
    to: &TcpStream,
    direction: Direction,
    config: &ChaosConfig,
    fate: Fate,
    stop: &AtomicBool,
) {
    let _ = from.set_read_timeout(Some(POLL));
    let mut from = from;
    let mut to = to;
    let mut chunk = [0u8; 4096];
    // Bytes this pump may still forward before tearing (server→client
    // only; the request direction stays intact so the server does the
    // work whose answer the client will never see).
    let mut tear_budget = match (fate, direction) {
        (Fate::Torn { after }, Direction::ServerToClient) => Some(after),
        _ => None,
    };
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let n = match from.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if fate == Fate::Blackhole {
            continue; // swallow; the peer's read timeout is their problem
        }
        if !config.delay.is_zero() {
            std::thread::sleep(config.delay);
        }
        let forward = match tear_budget {
            Some(budget) => n.min(budget),
            None => n,
        };
        if forward > 0 && to.write_all(&chunk[..forward]).is_err() {
            return;
        }
        let _ = to.flush();
        if let Some(budget) = &mut tear_budget {
            *budget -= forward;
            if *budget == 0 {
                return; // the caller slams both sockets on return
            }
        }
        if config.throttle_bytes_per_sec > 0 {
            // Pace: this chunk "costs" forward/rate seconds.
            let nanos = (forward as u64).saturating_mul(1_000_000_000)
                / config.throttle_bytes_per_sec as u64;
            std::thread::sleep(Duration::from_nanos(nanos));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_deterministic_and_respect_the_mix() {
        let config = ChaosConfig {
            torn_write_permille: 100,
            blackhole_permille: 50,
            seed: 7,
            ..ChaosConfig::default()
        };
        let first: Vec<Fate> = (0..2000).map(|c| config.fate(c)).collect();
        let second: Vec<Fate> = (0..2000).map(|c| config.fate(c)).collect();
        assert_eq!(first, second, "same seed, same fates");
        let torn = first
            .iter()
            .filter(|f| matches!(f, Fate::Torn { .. }))
            .count();
        let holes = first
            .iter()
            .filter(|f| matches!(f, Fate::Blackhole))
            .count();
        // 10% / 5% nominal; a well-mixed hash lands within loose bands.
        assert!((100..=300).contains(&torn), "torn rate off: {torn}/2000");
        assert!(
            (40..=160).contains(&holes),
            "blackhole rate off: {holes}/2000"
        );
        let clean_config = ChaosConfig::default();
        assert!((0..2000).all(|c| clean_config.fate(c) == Fate::Clean));
    }

    #[test]
    fn a_clean_proxy_is_transparent() {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("upstream addr");
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().expect("accept");
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).expect("read");
            conn.write_all(&buf).expect("write");
        });
        let mut proxy =
            ChaosProxy::start(upstream_addr, ChaosConfig::default()).expect("start proxy");
        let mut client = TcpStream::connect(proxy.addr()).expect("connect");
        client.write_all(b"hello").expect("send");
        let mut back = [0u8; 5];
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        client.read_exact(&mut back).expect("echo back");
        assert_eq!(&back, b"hello");
        echo.join().expect("echo thread");
        proxy.shutdown();
    }
}
