//! Chaos suite: the service behind the fault-injection proxy, plus
//! deadline/cancellation behavior under hostile peers.
//!
//! Every test body runs under an outer watchdog: the contract under
//! chaos is that a request ends in bit-exact success, a typed refusal
//! or a typed timeout — **never** a hang. A test that would hang
//! panics at the watchdog instead of stalling the suite.
//!
//! The client-deadline test needs the `failpoints` feature: it arms a
//! per-segment delay so its decode overruns the budget by construction
//! rather than by racing the clock.

use ninec_serve::{
    ChaosConfig, ChaosProxy, Client, ClientError, ClientOptions, RetryPolicy, RetryingClient,
    ServeConfig, Status,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

mod common;
use common::{start, watchdog, STREAM};

/// Serialises this file's tests: `NINEC_FAILPOINT` is process global and
/// read at every engine build, so a fault armed for one test's request
/// must not reach another's decodes (or the process-wide job gauge).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn torn_responses_retry_to_bit_exact_success() {
    let _env = env_lock();
    watchdog(Duration::from_secs(60), "torn-retry", || {
        let mut server = start(ServeConfig::default());
        // Seed 5 at 40% torn: connection 0 tears, connection 1 is clean
        // — so the first attempt is guaranteed to fail and the retry is
        // guaranteed to reconnect onto a healthy path.
        let mut proxy = ChaosProxy::start(
            server.addr(),
            ChaosConfig {
                torn_write_permille: 400,
                seed: 5,
                ..ChaosConfig::default()
            },
        )
        .expect("proxy starts");

        // Reference answer straight from the server, no faults.
        let text = STREAM.repeat(50);
        let mut direct = Client::connect(server.addr()).expect("direct connect");
        let frame = direct.compress(8, &text).expect("direct compress");
        let reference = direct
            .decode(&frame, ninec::Policy::Strict)
            .expect("direct decode");

        let mut client = RetryingClient::new(
            proxy.addr(),
            ClientOptions {
                read_timeout: Some(Duration::from_secs(5)),
                ..ClientOptions::default()
            },
            RetryPolicy {
                max_retries: 8,
                base: Duration::from_millis(2),
                cap: Duration::from_millis(50),
                ..RetryPolicy::default()
            },
        )
        .expect("retrying client resolves");
        for _ in 0..10 {
            let reply = client
                .decode(&frame, ninec::Policy::Strict)
                .expect("decode survives torn responses via retry");
            assert_eq!(reply.trits, reference.trits, "retried answer is bit-exact");
            assert!(!reply.partial);
        }
        assert!(
            client.retries() > 0,
            "connection 0 tears, so at least one retry must have happened"
        );
        proxy.shutdown();
        server.shutdown();
    });
}

#[test]
fn a_blackholed_connection_times_out_typed() {
    let _env = env_lock();
    watchdog(Duration::from_secs(30), "blackhole", || {
        let mut server = start(ServeConfig::default());
        let mut proxy = ChaosProxy::start(
            server.addr(),
            ChaosConfig {
                blackhole_permille: 1000, // every connection is swallowed
                ..ChaosConfig::default()
            },
        )
        .expect("proxy starts");

        let mut client = Client::connect_with(
            proxy.addr(),
            &ClientOptions {
                read_timeout: Some(Duration::from_millis(300)),
                ..ClientOptions::default()
            },
        )
        .expect("connect through the blackhole proxy");
        let started = Instant::now();
        let err = client.info(b"whatever").expect_err("nothing ever answers");
        let is_timeout = |e: &std::io::Error| {
            e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut
        };
        assert!(
            matches!(
                &err,
                ClientError::Io(e) if is_timeout(e)
            ) || matches!(
                &err,
                ClientError::Protocol(ninec_serve::WireError::Io(e)) if is_timeout(e)
            ),
            "blackhole must surface as a typed socket timeout, got: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the read timeout bounded the wait"
        );
        proxy.shutdown();
        server.shutdown();
    });
}

#[test]
fn delay_and_throttle_still_roundtrip_bit_exact() {
    let _env = env_lock();
    watchdog(Duration::from_secs(60), "delay-throttle", || {
        let mut server = start(ServeConfig::default());
        let mut proxy = ChaosProxy::start(
            server.addr(),
            ChaosConfig {
                delay: Duration::from_millis(10),
                throttle_bytes_per_sec: 16 << 10,
                ..ChaosConfig::default()
            },
        )
        .expect("proxy starts");
        let text = STREAM.repeat(20);
        let mut direct = Client::connect(server.addr()).expect("direct connect");
        let frame = direct.compress(8, &text).expect("direct compress");
        let reference = direct
            .decode(&frame, ninec::Policy::Strict)
            .expect("direct decode");
        let mut client = Client::connect(proxy.addr()).expect("connect");
        let reply = client
            .decode(&frame, ninec::Policy::Strict)
            .expect("decode over slow link");
        assert_eq!(reply.trits, reference.trits, "slowness must never corrupt");
        proxy.shutdown();
        server.shutdown();
    });
}

#[test]
fn the_server_ceiling_answers_status_8_and_reclaims_workers() {
    let _env = env_lock();
    watchdog(Duration::from_secs(60), "server-ceiling", || {
        // A zero ceiling: every decode's deadline has already passed by
        // the first segment-boundary check, deterministically.
        let mut server = start(ServeConfig {
            max_request_time: Some(Duration::ZERO),
            ..ServeConfig::default()
        });
        let mut client = Client::connect(server.addr()).expect("connect");
        // Compress ignores the decode deadline — the frame still builds.
        let frame = client
            .compress(8, &STREAM.repeat(200))
            .expect("compress is not deadline-bound");
        let err = client
            .decode(&frame, ninec::Policy::Strict)
            .expect_err("a zero budget can never decode");
        assert!(
            matches!(
                err,
                ClientError::Server {
                    status: Status::DeadlineExceeded,
                    ..
                }
            ),
            "expected the typed deadline status, got: {err}"
        );
        assert!(server.stats().deadline_exceeded >= 1);

        // Cancellation must reclaim the workers: the process-wide
        // active-job gauge settles back to zero.
        let settle = Instant::now();
        loop {
            if ninec::engine::active_jobs() == 0 {
                break;
            }
            assert!(
                settle.elapsed() < Duration::from_secs(10),
                "cancelled jobs never drained: active_jobs() = {}",
                ninec::engine::active_jobs()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    });
}

/// A 1 ms client deadline answers status 8. A `seg:*:delay` fail point
/// holds the tight request's segments past that budget, so the overrun
/// is forced, whatever the build's decode speed.
#[cfg(feature = "failpoints")]
#[test]
fn a_client_deadline_answers_status_8_and_old_clients_are_unaffected() {
    let _env = env_lock();
    watchdog(Duration::from_secs(60), "client-deadline", || {
        let mut server = start(ServeConfig::default());
        let text = STREAM.repeat(2000); // 40 k trits: many segments to abandon

        // Old-style client: no deadline, no capability in the HELLO —
        // greeting and behavior identical to the pre-deadline protocol.
        let mut old = Client::connect(server.addr()).expect("connect old");
        let greeting = old.hello("default").expect("hello");
        assert!(
            !greeting.contains("caps"),
            "a plain HELLO must not grow capabilities: {greeting}"
        );
        let frame = old.compress(8, &text).expect("compress");
        let reference = old
            .decode(&frame, ninec::Policy::Strict)
            .expect("old client decodes fine");
        assert_eq!(reference.trits.len(), text.len());

        // Deadline-negotiated client with an impossible 1ms budget.
        let mut tight = Client::connect_with(
            server.addr(),
            &ClientOptions {
                deadline: Some(Duration::from_millis(1)),
                ..ClientOptions::default()
            },
        )
        .expect("connect tight");
        let greeting = tight.hello("default").expect("hello negotiates");
        assert!(
            greeting.contains("caps deadline"),
            "server must echo the negotiated capability: {greeting}"
        );
        let err = {
            // Armed only for this request: every engine build reads it.
            struct Disarm;
            impl Drop for Disarm {
                fn drop(&mut self) {
                    std::env::remove_var(ninec::engine::faultpoint::ENV);
                }
            }
            std::env::set_var(ninec::engine::faultpoint::ENV, "seg:*:delay:20");
            let _disarm = Disarm;
            tight
                .decode(&frame, ninec::Policy::Strict)
                .expect_err("1ms cannot decode this frame")
        };
        assert!(
            matches!(
                err,
                ClientError::Server {
                    status: Status::DeadlineExceeded,
                    ..
                }
            ),
            "expected the typed deadline status, got: {err}"
        );

        // The connection survives its own deadline: relax it and decode.
        tight.set_deadline(Some(Duration::from_secs(60)));
        let reply = tight
            .decode(&frame, ninec::Policy::Strict)
            .expect("a generous deadline decodes normally");
        assert_eq!(reply.trits, reference.trits);
        server.shutdown();
    });
}

#[test]
fn a_slow_loris_is_reaped_and_clean_tenants_are_served() {
    let _env = env_lock();
    watchdog(Duration::from_secs(30), "slow-loris", || {
        // One handler thread: if the loris held it, the clean client
        // below could never be served.
        let mut server = start(ServeConfig {
            handler_threads: 1,
            read_timeout: Some(Duration::from_millis(500)),
            ..ServeConfig::default()
        });

        // The loris: trickle one byte of a "request" every 100ms,
        // forever. The total per-message budget must reap it even
        // though every individual byte lands well inside 500ms.
        let mut loris = TcpStream::connect(server.addr()).expect("loris connects");
        let loris_feeder = std::thread::spawn(move || {
            // A legitimate-looking 100-byte message... delivered one
            // byte at a time. (A garbage length prefix would earn a
            // typed BadRequest instead of exercising the read budget.)
            let mut message = vec![0u8; 64];
            message[..4].copy_from_slice(&100u32.to_le_bytes());
            for byte in message {
                if loris.write_all(&[byte]).is_err() {
                    break; // reaped — exactly what we want
                }
                let _ = loris.flush();
                std::thread::sleep(Duration::from_millis(100));
            }
            // Once reaped, the server side is gone: the socket must
            // observe the close instead of trickling forever.
            let _ = loris.set_read_timeout(Some(Duration::from_secs(10)));
            let mut buf = [0u8; 1];
            matches!(loris.read(&mut buf), Ok(0) | Err(_))
        });

        // Give the loris a head start so it owns the handler thread.
        std::thread::sleep(Duration::from_millis(150));

        // The clean tenant must be served normally once the loris is
        // reaped — bounded by the watchdog, not by luck.
        let mut client = Client::connect(server.addr()).expect("clean client connects");
        let text = STREAM.repeat(10);
        let frame = client.compress(8, &text).expect("clean compress");
        let reply = client
            .decode(&frame, ninec::Policy::Strict)
            .expect("clean decode");
        assert_eq!(reply.trits.len(), text.len());
        assert!(!reply.partial);

        assert!(
            loris_feeder.join().expect("loris thread"),
            "the loris socket must be closed by the server, not left open"
        );
        server.shutdown();
    });
}
