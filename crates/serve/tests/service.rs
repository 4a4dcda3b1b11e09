//! End-to-end service tests: wire roundtrips, the admission gates and
//! the exporter endpoints — all against in-process servers on ephemeral
//! loopback ports.

use ninec_serve::{Client, ClientError, Op, ServeConfig, Server, Status, TenantConfig};

const STREAM: &str = "0X0X00XX1111X11101X0";

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("ephemeral loopback server starts")
}

#[test]
fn compress_decode_info_repair_roundtrip() {
    let mut server = start(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    let text = STREAM.repeat(100);
    let frame = client.compress(8, &text).expect("compress");

    // Clean frame: the strict rung answers under any policy.
    let reply = client
        .decode(&frame, ninec::Policy::Strict)
        .expect("decode");
    assert_eq!(reply.rung, ninec::RungKind::Strict);
    assert_eq!(reply.damaged, 0);
    assert!(!reply.partial);
    assert!(!reply.degraded);
    assert_eq!(reply.trits.len(), text.len());

    // INFO summarises without decoding.
    let info = client.info(&frame).expect("info");
    assert!(info.contains("version: 3"), "unexpected info: {info}");
    assert!(info.contains("parity: 4:1"), "unexpected info: {info}");

    // Corrupt one byte: strict fails typed, repair rebuilds bit-exact.
    let mut damaged = frame.clone();
    damaged[47] ^= 0x55;
    let err = client
        .decode(&damaged, ninec::Policy::Strict)
        .expect_err("strict refuses damage");
    assert!(matches!(
        err,
        ClientError::Server {
            status: Status::Failed,
            ..
        }
    ));
    let repaired = client.repair(&damaged).expect("repair");
    assert_eq!(repaired.rung, ninec::RungKind::Repaired);
    assert_eq!(repaired.damaged, 1);
    assert!(!repaired.partial);
    assert_eq!(repaired.trits, reply.trits);

    let stats = server.stats();
    assert!(stats.ok >= 3);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.shed, 0);
    server.shutdown();
}

#[test]
fn salvage_of_unprotected_damage_is_partial() {
    // No parity: salvage is the only rung past strict, and it is lossy.
    let mut server = start(ServeConfig {
        parity: (0, 0),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let frame = client.compress(8, &STREAM.repeat(100)).expect("compress");
    let mut damaged = frame;
    damaged[47] ^= 0x55;
    let reply = client
        .decode(&damaged, ninec::Policy::Salvage)
        .expect("salvage answers lossily, not with an error");
    assert_eq!(reply.rung, ninec::RungKind::Salvaged);
    assert!(reply.partial);
    assert!(reply.damaged >= 1);
    assert_eq!(server.stats().partial, 1);
    server.shutdown();
}

#[test]
fn unknown_tenant_is_refused_and_connection_survives() {
    let mut server = start(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client.hello("ghost").expect_err("unknown tenant");
    assert!(matches!(
        err,
        ClientError::Server {
            status: Status::BadRequest,
            ..
        }
    ));
    // Still bound to `default`, still usable.
    let greeting = client.hello("default").expect("default tenant exists");
    assert!(greeting.contains("tenant default"), "greeting: {greeting}");
    let frame = client.compress(8, STREAM).expect("connection survives");
    assert!(!frame.is_empty());
    server.shutdown();
}

#[test]
fn malformed_bodies_are_bad_requests_never_disconnects() {
    let mut server = start(ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    // Empty decode body, unknown policy byte, non-UTF-8 trits, bad trits.
    let r = client.roundtrip(Op::Decode, b"").expect("server answers");
    assert_eq!(r.status, Status::BadRequest);
    let r = client
        .roundtrip(Op::Decode, &[9, 1, 2, 3])
        .expect("answers");
    assert_eq!(r.status, Status::BadRequest);
    let r = client
        .roundtrip(Op::Compress, &[8, 0, 0xFF, 0xFE])
        .expect("answers");
    assert_eq!(r.status, Status::BadRequest);
    let r = client
        .roundtrip(Op::Compress, &[8, 0, b'0', b'7'])
        .expect("answers");
    assert_eq!(r.status, Status::BadRequest);
    // Garbage frame bytes: INFO fails typed.
    let r = client.roundtrip(Op::Info, b"not a frame").expect("answers");
    assert_eq!(r.status, Status::Failed);
    // The connection survived all five.
    assert!(!client.compress(8, STREAM).expect("still alive").is_empty());
    server.shutdown();
}

#[test]
fn zero_admission_window_answers_busy() {
    let mut server = start(ServeConfig {
        max_inflight: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client.compress(8, STREAM).expect_err("window is closed");
    assert!(matches!(
        err,
        ClientError::Server {
            status: Status::Busy,
            ..
        }
    ));
    // HELLO does no codec work and skips admission entirely.
    assert!(client.hello("default").is_ok());
    assert!(server.stats().busy >= 1);
    server.shutdown();
}

#[test]
fn degraded_mode_sheds_repair_to_strict_and_flags_it() {
    // Threshold 0: every request sees the degraded load picture.
    let mut server = start(ServeConfig {
        degrade_threshold: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let frame = client.compress(8, &STREAM.repeat(100)).expect("compress");

    // A clean frame still answers exactly — degradation sheds rungs,
    // it never changes payloads.
    let reply = client
        .decode(&frame, ninec::Policy::Repair)
        .expect("decode");
    assert_eq!(reply.rung, ninec::RungKind::Strict);
    assert!(reply.degraded, "response must carry the degraded flag");

    // A damaged frame now fails typed instead of climbing to repair.
    let mut damaged = frame;
    damaged[47] ^= 0x55;
    let err = client
        .decode(&damaged, ninec::Policy::Repair)
        .expect_err("repair was shed");
    match err {
        ClientError::Server {
            status, degraded, ..
        } => {
            assert_eq!(status, Status::Failed);
            assert!(degraded, "refusal must carry the degraded flag");
        }
        other => panic!("expected a server refusal, got {other}"),
    }

    let stats = server.stats();
    assert!(stats.shed >= 2, "both repair requests were downgraded");
    server.shutdown();
}

#[test]
fn tenant_rate_limit_refuses_the_burst_overflow() {
    let mut server = start(ServeConfig {
        tenants: vec![TenantConfig {
            rate: Some(1),
            burst: 3,
            ..TenantConfig::new("metered")
        }],
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.hello("metered").expect("tenant exists");
    let mut refused = 0;
    for _ in 0..6 {
        match client.compress(8, STREAM) {
            Ok(_) => {}
            Err(ClientError::Server {
                status: Status::RateLimited,
                ..
            }) => refused += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(refused >= 2, "burst of 3 cannot admit 6 instant requests");
    assert_eq!(server.stats().rate_limited, refused);
    server.shutdown();
}

#[test]
fn metrics_trace_and_healthz_endpoints_serve() {
    let mut server = start(ServeConfig::default());
    let http = server.http_addr().expect("http listener is on by default");
    let mut client = Client::connect(server.addr()).expect("connect");
    let frame = client.compress(8, &STREAM.repeat(50)).expect("compress");
    client
        .decode(&frame, ninec::Policy::Strict)
        .expect("decode");

    let health = ninec_serve::client::http_get(http, "/healthz").expect("healthz");
    assert_eq!(health, "ok\n");

    let metrics = ninec_serve::client::http_get(http, "/metrics").expect("metrics");
    assert!(
        metrics.contains("ninec_serve_requests"),
        "prometheus text missing serve counters:\n{metrics}"
    );

    let trace = ninec_serve::client::http_get(http, "/trace").expect("trace");
    assert!(
        trace.trim_start().starts_with('{') || trace.trim_start().starts_with('['),
        "trace endpoint must serve a JSON document: {trace}"
    );

    let missing = ninec_serve::client::http_get(http, "/nope");
    assert!(missing.is_err(), "unknown paths are 404");
    server.shutdown();
}

#[test]
fn torn_and_oversized_wire_frames_do_not_wedge_the_server() {
    use std::io::Write;
    let mut server = start(ServeConfig {
        max_message_bytes: 1024,
        ..ServeConfig::default()
    });

    // A length bomb: claims 512 MiB, sends nothing more.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(&[0, 0, 0, 0x20, 2])
        .expect("bomb prefix writes");
    drop(stream);

    // Half a length prefix, then hang up.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&[3, 0]).expect("torn prefix writes");
    drop(stream);

    // The server is still answering real clients.
    let mut client = Client::connect(server.addr()).expect("connect");
    assert!(!client
        .compress(8, STREAM)
        .expect("still serving")
        .is_empty());
    server.shutdown();
}

#[test]
fn stats_snapshot_counts_connections_and_requests() {
    let mut server = start(ServeConfig::default());
    let mut a = Client::connect(server.addr()).expect("connect");
    let mut b = Client::connect(server.addr()).expect("connect");
    a.compress(8, STREAM).expect("a compresses");
    b.compress(8, STREAM).expect("b compresses");
    drop((a, b));
    let stats = server.stats();
    assert!(stats.connections >= 2);
    assert!(stats.requests >= 2);
    assert!(stats.ok >= 2);
    server.shutdown();
}

#[test]
fn archive_range_serves_random_access_and_typed_refusals() {
    // Host a one-frame archive on disk; the range verb ships only the
    // 20-byte coordinate triple and gets trit text back.
    let dir = std::env::temp_dir().join(format!("ninec_serve_arcrange_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let engine = ninec::Engine::builder()
        .threads(1)
        .segment_bits(128)
        .build();
    let stream: ninec_testdata::trit::TritVec = STREAM.repeat(40).parse().expect("trit text");
    let frame = engine.encode_frame(8, &stream).expect("encode");
    let store = dir.join("hosted.9ca");
    let mut arc = ninec::engine::Archive::create(&store, &engine).expect("create archive");
    arc.append_frame(&frame).expect("append");
    drop(arc);

    let mut server = start(ServeConfig {
        archive: Some(store.to_str().expect("utf-8 path").to_string()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let full = engine.decode_frame(&frame).expect("decode").to_string();
    let got = client.archive_range(0, 20, 60).expect("range decodes");
    assert_eq!(
        got,
        full[20..80],
        "range must match the full decode's slice"
    );

    // Bad coordinates are the client's fault: typed BadRequest, and the
    // connection keeps serving.
    let err = client
        .archive_range(9, 0, 1)
        .expect_err("frame 9 does not exist");
    assert!(matches!(
        err,
        ClientError::Server {
            status: Status::BadRequest,
            ..
        }
    ));
    let err = client
        .archive_range(0, 0, u64::MAX)
        .expect_err("len is past the end");
    assert!(matches!(
        err,
        ClientError::Server {
            status: Status::BadRequest,
            ..
        }
    ));
    assert_eq!(
        client.archive_range(0, 0, 8).expect("still serving"),
        full[..8]
    );
    server.shutdown();

    // A server with no hosted archive refuses the verb outright.
    let mut plain = start(ServeConfig::default());
    let mut client = Client::connect(plain.addr()).expect("connect");
    let err = client
        .archive_range(0, 0, 1)
        .expect_err("no archive hosted");
    assert!(matches!(
        err,
        ClientError::Server {
            status: Status::BadRequest,
            ..
        }
    ));
    plain.shutdown();
}
