//! Soak suite: eight connections each send forty decodes of one
//! 10 k-trit frame to an in-process server, in three shapes — nominal
//! (nothing refused or shed), overload (repair shed to strict, the
//! admission window answering busy) and chaos (torn writes retried to
//! exact answers).
//!
//! This is a test binary of its own: the degrade gate reads the
//! process-global `ninec::engine::active_jobs()`, and `chaos.rs`'s
//! ceiling test waits for it to drain.

use ninec_serve::{
    ChaosConfig, ChaosProxy, Client, ClientError, ClientOptions, RetryPolicy, RetryingClient,
    ServeConfig, Server, Status,
};
use std::time::Duration;

mod common;
use common::{start, watchdog, STREAM};

/// Concurrent client connections per soak.
const CONNECTIONS: usize = 8;
/// Requests each connection sends.
const REQUESTS_PER_CONN: usize = 40;
/// Requests per soak, all connections together.
const REQUESTS: u64 = (CONNECTIONS * REQUESTS_PER_CONN) as u64;

/// A wide admission window: every connection has a handler, and the
/// window and queue hold two requests per connection.
fn nominal_config() -> ServeConfig {
    ServeConfig {
        handler_threads: CONNECTIONS,
        max_inflight: CONNECTIONS * 2,
        queue_depth: CONNECTIONS * 2,
        ..ServeConfig::default()
    }
}

/// Compresses the soak stream through `server`; returns the frame and
/// its strict decode, the answer every soak request must match.
fn seed_frame(server: &Server) -> (Vec<u8>, String) {
    let text = STREAM.repeat(500);
    let mut seeder = Client::connect(server.addr()).expect("seeder connects");
    let frame = seeder.compress(8, &text).expect("seed frame");
    let expected = seeder
        .decode(&frame, ninec::Policy::Strict)
        .expect("reference decode")
        .trits;
    (frame, expected)
}

/// Runs `lane` on `CONNECTIONS` threads at once and collects what each
/// returns.
fn lanes<T: Send + 'static>(lane: impl Fn() -> T + Clone + Send + 'static) -> Vec<T> {
    let handles: Vec<_> = (0..CONNECTIONS)
        .map(|_| std::thread::spawn(lane.clone()))
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("soak lane panicked"))
        .collect()
}

/// Sends every soak request under `Policy::Repair` straight to `server`.
/// Each OK answer must be exact; returns the `(ok, busy)` answer
/// counts. Any other error fails the soak.
fn soak(server: &Server, frame: &[u8], expected: &str) -> (u64, u64) {
    let (addr, frame, expected) = (server.addr(), frame.to_vec(), expected.to_owned());
    let counts = lanes(move || {
        let mut client = Client::connect(addr).expect("soak client connects");
        let (mut ok, mut busy) = (0u64, 0u64);
        for _ in 0..REQUESTS_PER_CONN {
            match client.decode(&frame, ninec::Policy::Repair) {
                Ok(reply) => {
                    assert_eq!(reply.trits, expected, "soak decode must stay exact");
                    ok += 1;
                }
                Err(ClientError::Server {
                    status: Status::Busy,
                    ..
                }) => busy += 1,
                Err(other) => panic!("soak hit an unexpected error: {other}"),
            }
        }
        (ok, busy)
    });
    counts
        .into_iter()
        .fold((0, 0), |(ok, busy), (o, b)| (ok + o, busy + b))
}

#[test]
fn nominal_soak_answers_every_request_exactly() {
    watchdog(Duration::from_secs(60), "nominal-soak", || {
        let mut server = start(nominal_config());
        let (frame, expected) = seed_frame(&server);
        let (ok, busy) = soak(&server, &frame, &expected);
        let stats = server.stats();
        server.shutdown();
        assert_eq!(ok, REQUESTS, "nominal soak answers everything");
        assert_eq!(busy, 0, "nominal soak must not hit busy");
        assert_eq!(stats.busy, 0, "nominal server must not refuse busy");
        assert_eq!(stats.shed, 0, "nominal soak must not shed");
    });
}

#[test]
fn overload_soak_sheds_and_refuses_typed() {
    watchdog(Duration::from_secs(60), "overload-soak", || {
        // Every request sees the degraded load picture, so every repair
        // decode is shed to strict (the frame is clean, so the answers
        // stay exact — degradation sheds rungs, not payloads), and a
        // one-slot admission window under eight connections answers busy.
        let mut server = start(ServeConfig {
            handler_threads: 2,
            max_inflight: 1,
            queue_depth: CONNECTIONS,
            degrade_threshold: 0,
            ..ServeConfig::default()
        });
        let (frame, expected) = seed_frame(&server);
        let (ok, busy) = soak(&server, &frame, &expected);
        let stats = server.stats();
        server.shutdown();
        assert!(
            stats.shed > 0,
            "overload soak must shed repair work (shed counter stayed 0)"
        );
        assert_eq!(
            ok + busy,
            REQUESTS,
            "every overload request is answered or refused typed"
        );
    });
}

#[test]
fn chaos_soak_retries_every_request_to_an_exact_answer() {
    watchdog(Duration::from_secs(60), "chaos-soak", || {
        // The nominal server behind the fault-injection proxy at a 10%
        // torn-write rate (seed 3 tears connections among the lanes'
        // first dials): retrying clients must still finish every request
        // exactly, and the retry tally proves the faults fired.
        let mut server = start(nominal_config());
        let (frame, expected) = seed_frame(&server);
        let mut proxy = ChaosProxy::start(
            server.addr(),
            ChaosConfig {
                torn_write_permille: 100,
                seed: 3,
                ..ChaosConfig::default()
            },
        )
        .expect("chaos proxy starts");
        let addr = proxy.addr();
        let retries: u64 = lanes(move || {
            let mut client = RetryingClient::new(
                addr,
                ClientOptions {
                    read_timeout: Some(Duration::from_secs(10)),
                    ..ClientOptions::default()
                },
                RetryPolicy {
                    max_retries: 6,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(100),
                    ..RetryPolicy::default()
                },
            )
            .expect("chaos client resolves");
            for _ in 0..REQUESTS_PER_CONN {
                let reply = client
                    .decode(&frame, ninec::Policy::Strict)
                    .expect("chaos soak decode must succeed via retries");
                assert_eq!(reply.trits, expected, "chaos decode must stay exact");
            }
            client.retries()
        })
        .into_iter()
        .sum();
        proxy.shutdown();
        server.shutdown();
        assert!(retries > 0, "the fault mix must actually have fired");
    });
}
