//! `serve_open_loop`: small requests to an in-process codec service.
//!
//! Connections, each driven by one thread, send a seeded mix — 60%
//! decodes of a clean 10 k-trit frame, 10% repairs of a damaged one, 20%
//! compresses of 10 k trits, 10% 512-trit archive ranges — in four
//! phases of equal length. `low` and `mid` are open loops on two
//! connections at 400 and 1200 requests/s: a fixed schedule, as
//! independent users would send, with latency timed from when a request
//! was due, so a stall also charges the requests queued behind it; how
//! late the generator ran is reported. `closed1` and `closed2` are closed
//! loops (a connection sends its next request when the last reply lands)
//! on one and two connections, which find the sustained rate without
//! drawing `Busy` refusals. The end-to-end numbers are the fast decile of
//! the `mid` latencies; medians, tails and closed-loop rates wander too
//! much between runs on a shared two-core host to bound, and are
//! reported beside them. Decoding a request's frame in process takes a
//! fifth to a third of its round trip (`serve.exec_share_pct`), so wire,
//! admission and hand-off costs matter here more than the codec.
//!
//! The service runs two handler threads, and a handler serves one
//! connection until it closes: an idle extra connection left open from
//! set-up would pin a handler and stall a lane for a whole phase. Set-up
//! therefore opens exactly the two lane connections and warms up on
//! them; `serve.server.connections` shows the count.

use std::time::{Duration, Instant};

use super::{
    covers, end_to_end, fast_rate, latency, metric, set_up, Checker, Layers, Metric, Opts, Run,
    ScratchDir,
};
use crate::api::{self, Codec, Conn, Policy, Service, ServiceCounts, SlotKind, Store};
use crate::gen::{digest, mix, Profile, SplitMix64};
use crate::stats::{median, quantile, Reservoir};
use crate::trace::Tracer;
use ninec_testdata::trit::TritVec;

const K: usize = 8;
const HANDLERS: usize = 2;
const DECODE_THREADS: usize = 1;
/// The latency limit the middle rate is judged against.
const SLO_SECS: f64 = 2e-3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Decode,
    Repair,
    Compress,
    Range,
}

impl Op {
    const ALL: [Op; 4] = [Op::Decode, Op::Repair, Op::Compress, Op::Range];

    fn pick(rng: &mut SplitMix64) -> Op {
        match rng.below(10) {
            0..=5 => Op::Decode,
            6 => Op::Repair,
            7 | 8 => Op::Compress,
            _ => Op::Range,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Op::Decode => "decode",
            Op::Repair => "repair",
            Op::Compress => "compress",
            Op::Range => "range",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Op::Decode => "serve.request.decode",
            Op::Repair => "serve.request.repair",
            Op::Compress => "serve.request.compress",
            Op::Range => "serve.request.range",
        }
    }
}

struct Spec {
    pool: Profile,
    pool_size: usize,
    archive: Profile,
    archive_frames: usize,
    ranges: usize,
    range_len: usize,
    /// Open-loop rates of the `low` and `mid` phases, requests/s.
    rates: [f64; 2],
}

impl Spec {
    fn new(tiny: bool) -> Spec {
        if tiny {
            Spec {
                pool: Profile::ckt1(2, 1000, 0.90),
                pool_size: 4,
                archive: Profile::ckt1(2, 2048, 0.90),
                archive_frames: 2,
                ranges: 8,
                range_len: 64,
                rates: [100.0, 200.0],
            }
        } else {
            Spec {
                pool: Profile::ckt1(5, 2000, 0.90),
                pool_size: 64,
                archive: Profile::ckt1(8, 8192, 0.90),
                archive_frames: 4,
                ranges: 256,
                range_len: 512,
                rates: [400.0, 1200.0],
            }
        }
    }
}

/// The in-process answer to every request the lanes can send.
struct Refs {
    texts: Vec<String>,
    frames: Vec<Vec<u8>>,
    decoded: Vec<String>,
    damaged: Vec<Vec<u8>>,
    /// `(frame, start, expected text)` per range request.
    ranges: Vec<(u32, u64, String)>,
    range_len: usize,
}

struct State {
    refs: Refs,
    cleans: Vec<TritVec>,
    service: Service,
    conns: Vec<Conn>,
    /// In-process decode time of each pool frame, seconds.
    local_decode: Vec<f64>,
}

/// One completed request of a lane.
#[derive(Clone, Copy)]
struct Sample {
    op: Op,
    /// Reply time minus due time.
    latency: f64,
    /// Reply time minus send time.
    rtt: f64,
    /// Send time minus due time.
    late: f64,
}

pub fn run(opts: &Opts) -> api::Result<Run> {
    let spec = Spec::new(opts.tiny);
    let mut rng = SplitMix64::new(opts.seed, 1);
    let pool: Vec<TritVec> = (0..spec.pool_size)
        .map(|_| spec.pool.generate(&mut rng))
        .collect();
    let mut rng = SplitMix64::new(opts.seed, 2);
    let hosted: Vec<TritVec> = (0..spec.archive_frames)
        .map(|_| spec.archive.generate(&mut rng))
        .collect();
    let dir = ScratchDir::new(opts, "serve")?;
    let path = dir.path().join("hosted.9ca");

    let mut check = Checker::default();
    let (mut state, setup_s) = set_up(|| build(&spec, opts.seed, &pool, &hosted, &path))?;
    let reference = Codec::like_server(K, DECODE_THREADS);
    if opts.corrupt {
        for text in &mut state.refs.decoded {
            text.insert(0, '1');
        }
    }

    let mut tr = Tracer::new(opts.trace);
    let mut layers = Layers::default();
    if opts.trace {
        for (i, src) in pool.iter().enumerate() {
            let frame = &state.refs.frames[i];
            for bytes in [frame, &state.refs.damaged[i]] {
                let decoded = layers.decode(&mut tr, &reference, bytes, Policy::Repair);
                if let Some(d) = check.call("decode_frame", decoded) {
                    check.op(d.trits == state.cleans[i], || "decode_frame differs".into());
                }
            }
            layers.probe(
                &mut tr,
                &mut check,
                &reference,
                src,
                frame,
                &state.cleans[i],
            );
        }
    }

    let phases = [
        Phase::open("low", spec.rates[0]),
        Phase::open("mid", spec.rates[1]),
        Phase::closed("closed1", 1),
        Phase::closed("closed2", HANDLERS),
    ];
    // Warm-up takes the first seventh of each phase.
    let secs = opts.seconds / phases.len() as f64;
    let measured = secs * 6.0 / 7.0;
    let mut results = Vec::new();
    for (index, phase) in phases.iter().enumerate() {
        let before = state.service.counts();
        let (samples, sent) = drive(
            &mut state, &mut tr, &mut check, opts.seed, index, phase, secs,
        );
        results.push((samples, sent, state.service.counts().minus(before)));
    }

    let trits = spec.pool.total();
    let of = |samples: &[Sample], op: Option<Op>, f: fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| op.is_none_or(|o| s.op == o))
            .map(f)
            .collect()
    };
    let mut extras = Vec::new();
    for (phase, (samples, _, counts)) in phases.iter().zip(&results) {
        let name = phase.name;
        extras.extend(latency(
            &format!("req.{name}"),
            &of(samples, None, |s| s.latency),
        ));
        extras.push(metric(
            format!("serve.client.rtt_p50_us.{name}"),
            median(&of(samples, None, |s| s.rtt)) * 1e6,
            "us",
        ));
        if phase.rate.is_some() {
            extras.push(metric(
                format!("serve.gen.lateness_p99_us.{name}"),
                quantile(&of(samples, None, |s| s.late), 0.99) * 1e6,
                "us",
            ));
        }
        extras.extend(counts.metrics(name));
    }
    let (low, mid) = (&results[0].0, &results[1].0);
    for op in Op::ALL {
        extras.push(metric(
            format!("serve.op.{}.p50_us.mid", op.name()),
            median(&of(mid, Some(op), |s| s.latency)) * 1e6,
            "us",
        ));
    }
    let mid_latency = of(mid, None, |s| s.latency);
    let missed = mid_latency.iter().filter(|&&l| l > SLO_SECS).count();
    extras.push(metric(
        "serve.slo_miss_pct.mid",
        missed as f64 * 100.0 / mid_latency.len().max(1) as f64,
        "%",
    ));
    extras.push(metric(
        "serve.exec_share_pct",
        median(&state.local_decode) / median(&of(low, Some(Op::Decode), |s| s.rtt)) * 100.0,
        "%",
    ));
    for (phase, (_, sent, _)) in phases.iter().zip(&results).skip(2) {
        extras.push(metric(
            format!("serve.sustained_rps.{}", phase.name),
            *sent as f64 / measured,
            "1/s",
        ));
    }
    extras.push(metric(
        "serve.server.connections",
        state.service.counts().connections as f64,
        "count",
    ));

    let metrics = if opts.trace {
        let (layer_metrics, more) = layers.metrics(&tr);
        extras.extend(more);
        layer_metrics
    } else {
        let stored: usize = state.refs.frames.iter().map(Vec::len).sum();
        end_to_end([
            ("setup_s", setup_s),
            ("peak_rss_mib", super::peak_rss_mib()),
            (
                "stored_bits_per_trit",
                stored as f64 * 8.0 / (trits * pool.len()) as f64,
            ),
            (
                "write_mbit_s",
                fast_rate(trits, &of(mid, Some(Op::Compress), |s| s.latency)),
            ),
            (
                "read_mbit_s",
                fast_rate(trits, &of(mid, Some(Op::Decode), |s| s.latency)),
            ),
        ])
    };
    drop(state);
    let input_digest = pool.iter().chain(&hosted).fold(0, |h, t| mix(h, digest(t)));
    Ok(Run {
        metrics,
        extras,
        check,
        input_digest,
        tracer: tr,
    })
}

/// Set-up: the hosted archive, the in-process reference for every
/// request, the service, and a warm-up on the two lane connections.
fn build(
    spec: &Spec,
    seed: u64,
    pool: &[TritVec],
    hosted: &[TritVec],
    path: &std::path::Path,
) -> api::Result<State> {
    let reference = Codec::like_server(K, DECODE_THREADS);
    let mut damage = SplitMix64::new(seed, 3);
    let mut refs = Refs {
        texts: pool.iter().map(ToString::to_string).collect(),
        frames: Vec::new(),
        decoded: Vec::new(),
        damaged: Vec::new(),
        ranges: Vec::new(),
        range_len: spec.range_len,
    };
    let (mut cleans, mut local_decode) = (Vec::new(), Vec::new());
    for src in pool {
        let frame = reference.encode_frame(src)?;
        let t = Instant::now();
        let clean = reference.decode_frame(&frame, Policy::Repair)?.trits;
        local_decode.push(t.elapsed().as_secs_f64());
        let data: Vec<_> = reference
            .layout(&frame)?
            .slots
            .into_iter()
            .filter(|s| matches!(s.kind, SlotKind::Data { .. }))
            .collect();
        let slot = &data[damage.below(data.len())];
        let mut damaged = frame.clone();
        let at = slot.bytes.start + api::SEGMENT_HEADER_BYTES;
        damaged[at + damage.below(slot.bytes.end - at)] ^= 1 + damage.below(255) as u8;
        refs.decoded.push(clean.to_string());
        refs.frames.push(frame);
        refs.damaged.push(damaged);
        cleans.push(clean);
    }

    let archive_codec = Codec::new(K, 1, 4096, Some((4, 1)));
    for f in Store::files(path) {
        let _ = std::fs::remove_file(f);
    }
    let mut store = Store::create(path, &archive_codec)?;
    for src in hosted {
        store.append(&archive_codec.encode_frame(src)?)?;
    }
    let mut pick = SplitMix64::new(seed, 4);
    for _ in 0..spec.ranges {
        let frame = pick.below(hosted.len());
        let start = pick.below(spec.archive.total() - spec.range_len + 1);
        let got = store.range(frame, start, spec.range_len)?;
        let want = hosted[frame].slice(start, start + spec.range_len);
        if !covers(&got, &want, 0) {
            return Err(format!(
                "range {start} of hosted frame {frame} lost care bits"
            ));
        }
        refs.ranges
            .push((frame as u32, start as u64, got.to_string()));
    }
    drop(store);

    let service = Service::start(path, HANDLERS, DECODE_THREADS)?;
    let mut conns = Vec::new();
    for _ in 0..HANDLERS {
        let mut conn = Conn::connect(service.addr())?;
        for op in Op::ALL {
            if !send(&mut conn, &refs, op, 0)? {
                return Err(format!("warm-up {} reply differs", op.name()));
            }
        }
        conns.push(conn);
    }
    Ok(State {
        refs,
        cleans,
        service,
        conns,
        local_decode,
    })
}

/// Sends one request for pool item (or range entry) `item`; `Ok(true)`
/// when the reply equals the in-process reference.
fn send(conn: &mut Conn, refs: &Refs, op: Op, item: usize) -> api::Result<bool> {
    Ok(match op {
        Op::Decode => {
            let reply = conn.decode(&refs.frames[item], Policy::Repair)?;
            reply.lossless && reply.rung == "strict" && reply.trits == refs.decoded[item]
        }
        Op::Repair => {
            let reply = conn.repair(&refs.damaged[item])?;
            reply.lossless && reply.rung == "repaired" && reply.trits == refs.decoded[item]
        }
        Op::Compress => conn.compress(K as u16, &refs.texts[item])? == refs.frames[item],
        Op::Range => {
            let (frame, start, want) = &refs.ranges[item];
            conn.range(*frame, *start, refs.range_len as u64)? == *want
        }
    })
}

/// One load phase: an open loop at `rate` requests/s split evenly over
/// `lanes` connections, or a closed loop when `rate` is `None`.
struct Phase {
    name: &'static str,
    rate: Option<f64>,
    lanes: usize,
}

impl Phase {
    fn open(name: &'static str, rate: f64) -> Phase {
        Phase {
            name,
            rate: Some(rate),
            lanes: HANDLERS,
        }
    }

    fn closed(name: &'static str, lanes: usize) -> Phase {
        Phase {
            name,
            rate: None,
            lanes,
        }
    }
}

/// Runs one phase for `secs`, one thread per lane connection. Returns a
/// bounded sample of the requests sent after the warm-up seventh, and
/// how many there were.
fn drive(
    state: &mut State,
    tr: &mut Tracer,
    check: &mut Checker,
    seed: u64,
    index: usize,
    phase: &Phase,
    secs: f64,
) -> (Vec<Sample>, usize) {
    let warm = secs / 7.0;
    let (refs, lanes, rate) = (&state.refs, phase.lanes, phase.rate);
    let start = Instant::now();
    let results: Vec<(Reservoir<Sample>, Checker, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .conns
            .iter_mut()
            .take(lanes)
            .enumerate()
            .map(|(lane, conn)| {
                let mut tr = tr.fork(lane as u32 + 1);
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(seed, 16 + (index * HANDLERS + lane) as u64);
                    let mut samples = Reservoir::new(seed);
                    let mut check = Checker::default();
                    for j in 0.. {
                        // An open-loop request is due on its schedule
                        // whether or not the previous reply is back.
                        let due = match rate {
                            Some(r) => (j * lanes + lane) as f64 / r,
                            None => start.elapsed().as_secs_f64(),
                        };
                        if due >= secs {
                            break;
                        }
                        let wait = due - start.elapsed().as_secs_f64();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let op = Op::pick(&mut rng);
                        let item = match op {
                            Op::Range => rng.below(refs.ranges.len()),
                            _ => rng.below(refs.frames.len()),
                        };
                        let sent = start.elapsed().as_secs_f64();
                        let id = ((index as u64) << 40) | ((lane as u64) << 32) | j as u64;
                        let reply =
                            tr.span_req(op.span(), Some(id), |_| send(conn, refs, op, item));
                        let done = start.elapsed().as_secs_f64();
                        match reply {
                            Ok(ok) => check.op(ok, || format!("{} reply differs", op.name())),
                            Err(e) => check.op(false, || format!("{}: {e}", op.name())),
                        }
                        if due >= warm {
                            samples.push(Sample {
                                op,
                                latency: done - due,
                                rtt: done - sent,
                                late: sent - due,
                            });
                        }
                    }
                    (samples, check, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a lane thread panicked"))
            .collect()
    });
    let (mut samples, mut sent) = (Vec::new(), 0);
    for (s, c, t) in results {
        sent += s.seen();
        samples.extend(s.iter().copied());
        check.absorb(c);
        tr.absorb(t);
    }
    (samples, sent)
}

impl ServiceCounts {
    fn minus(self, before: ServiceCounts) -> ServiceCounts {
        ServiceCounts {
            connections: self.connections - before.connections,
            ok: self.ok - before.ok,
            busy: self.busy - before.busy,
            shed: self.shed - before.shed,
            failed: self.failed - before.failed,
            partial: self.partial - before.partial,
            deadline_exceeded: self.deadline_exceeded - before.deadline_exceeded,
        }
    }

    fn metrics(&self, phase: &str) -> Vec<Metric> {
        [
            ("ok", self.ok),
            ("busy", self.busy),
            ("shed", self.shed),
            ("failed", self.failed),
            ("partial", self.partial),
            ("deadline_exceeded", self.deadline_exceeded),
        ]
        .into_iter()
        .map(|(name, v)| metric(format!("serve.server.{name}.{phase}"), v as f64, "count"))
        .collect()
    }
}
