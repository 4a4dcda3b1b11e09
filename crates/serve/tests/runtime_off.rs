//! The runtime kill switch covers the service. With
//! `ninec_obs::set_runtime_enabled(false)`, served requests leave the
//! whole registry and the flight recorder untouched, while
//! `Server::stats()` still counts them.
//!
//! The switch is process-global, so this file is a test binary of its
//! own with a single test.

use ninec_serve::{
    ChaosConfig, ChaosProxy, Client, ClientOptions, RetryPolicy, RetryingClient, ServeConfig,
    Server,
};
use std::time::Duration;

mod common;
use common::{start, watchdog, STREAM};

/// A compress, a repair decode of a frame with one damaged payload byte,
/// and a decode retried through a proxy that tears its first connection.
fn serve_requests(server: &Server) {
    let mut client = Client::connect(server.addr()).expect("connect");
    let frame = client.compress(8, &STREAM.repeat(100)).expect("compress");
    let mut damaged = frame.clone();
    damaged[47] ^= 0x55;
    let repaired = client.repair(&damaged).expect("repair");
    assert_eq!(repaired.rung, ninec::RungKind::Repaired);

    // Seed 5 at 40% torn: connection 0 tears, connection 1 is clean.
    let mut proxy = ChaosProxy::start(
        server.addr(),
        ChaosConfig {
            torn_write_permille: 400,
            seed: 5,
            ..ChaosConfig::default()
        },
    )
    .expect("proxy starts");
    let mut retrying = RetryingClient::new(
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
    retrying
        .decode(&frame, ninec::Policy::Strict)
        .expect("decode survives the torn connection");
    assert!(retrying.retries() > 0, "connection 0 tears, so it retried");
    proxy.shutdown();
}

#[test]
fn runtime_switch_off_publishes_nothing_but_stats_still_count() {
    watchdog(Duration::from_secs(60), "runtime-off", || {
        ninec_obs::set_runtime_enabled(false);
        let before = ninec_obs::snapshot();
        let mut server = start(ServeConfig::default());
        serve_requests(&server);
        let stats = server.stats();
        server.shutdown();
        assert_eq!(ninec_obs::snapshot(), before, "registry moved while off");
        assert!(ninec_obs::take_trace().is_empty(), "recorder ran while off");
        assert!(stats.requests >= 4, "stats must count every request");
        assert!(stats.ok >= 3, "stats must count every answer");

        ninec_obs::set_runtime_enabled(true);
        let requests = || {
            ninec_obs::snapshot()
                .counter("ninec.serve.requests")
                .unwrap_or(0)
        };
        let on_before = requests();
        let mut server = start(ServeConfig::default());
        serve_requests(&server);
        server.shutdown();
        assert!(requests() >= on_before + 4, "runtime on must publish again");
    });
}
