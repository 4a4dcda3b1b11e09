//! Allocation budget of the data-plane calls.
//!
//! The paper's decompressor has a fixed size whatever the test set: a
//! nine-codeword FSM, a `log2(K/2)`-bit counter and a `K/2`-bit shifter.
//! This binary pins how much heap each warm software call takes instead.
//! A counting `#[global_allocator]` (std's [`GlobalAlloc`] over
//! [`System`]) records, for one warm call at a time, how many
//! allocations it makes and how many bytes it holds live at its peak.
//!
//! The calls run on two seeded v3 frames (K 8, parity 4:1): the
//! request-size frame of `ninec-serve`'s defaults, 10 k trits in 256-trit
//! segments (40 data segments), and a 1 M-trit frame in 1 Ki-trit
//! segments (977 data segments), each at 1 and 3 threads, with runtime
//! telemetry off. Each bound is what the code took when it was set. At
//! 3 threads a call's figures can vary between runs with the workers'
//! timing, so those bounds are the highest of 20 runs, and their peak
//! bytes, which move by up to a few hundred bytes, get one KiB more. A
//! call that needs more fails here, and a change that needs less lowers
//! its bound. (The repair rung and encode bounds are the counts they
//! took when this test landed; the strict decodes' were lowered when
//! strict decode came to write in place.)
//!
//! Strict decode allocates nothing per data segment: at one thread its
//! count on the larger frame exceeds the request-size frame's by at most
//! `Vec` growth.
//!
//! The allocator is process global, so this file is a binary of its own
//! with a single test.

use ninec::engine::{Archive, FrameReader};
use ninec::session::DecodeSession;
use ninec::{Engine, Policy};
use ninec_testdata::gen::SyntheticProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Counts allocations while [`COUNTING`] is on and tracks live bytes
/// always, so frees of older blocks during a counted call balance out.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only touches
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation counts as one allocation of the new size.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        Self::grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one counted call took: allocations, and the peak of live bytes
/// above what was live when it started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Usage {
    allocs: u64,
    peak_bytes: usize,
}

/// Runs `call` once to warm it, then once counted.
fn measure(call: &dyn Fn()) -> Usage {
    call();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    call();
    COUNTING.store(false, Ordering::Relaxed);
    Usage {
        allocs: ALLOCS.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed).saturating_sub(base),
    }
}

/// The calls measured, in order.
const CALLS: [&str; 7] = [
    "Engine::decode_frame",
    "execute_plan(Strict)",
    "DecodeSession::decode_frame(Strict)",
    "DecodeSession::decode_frame(Repair)",
    "decode_stream_reader",
    "Archive::decode_range",
    "encode_frame",
];

/// The headroom on a 3-thread peak: how many workers hold their buffers
/// at once depends on their timing.
const KIB: usize = 1024;

/// `(frame, threads, call, allocations, peak live bytes)`: each call's
/// ceiling.
#[rustfmt::skip]
const BOUNDS: [(&str, usize, &str, u64, usize); 28] = [
    ("req", 1, "Engine::decode_frame", 23, 16856),
    ("req", 1, "execute_plan(Strict)", 18, 12248),
    ("req", 1, "DecodeSession::decode_frame(Strict)", 24, 16856),
    ("req", 1, "DecodeSession::decode_frame(Repair)", 184, 19768),
    ("req", 1, "decode_stream_reader", 298, 4110),
    ("req", 1, "Archive::decode_range", 31, 3352),
    ("req", 1, "encode_frame", 255, 18468),
    ("req", 3, "Engine::decode_frame", 33, 17288 + KIB),
    ("req", 3, "execute_plan(Strict)", 28, 12680 + KIB),
    ("req", 3, "DecodeSession::decode_frame(Strict)", 34, 17288 + KIB),
    ("req", 3, "DecodeSession::decode_frame(Repair)", 194, 19768 + KIB),
    ("req", 3, "decode_stream_reader", 271, 5170 + KIB),
    ("req", 3, "Archive::decode_range", 41, 3784 + KIB),
    ("req", 3, "encode_frame", 265, 18468 + KIB),
    ("bulk", 1, "Engine::decode_frame", 36, 603376),
    ("bulk", 1, "execute_plan(Strict)", 26, 455920),
    ("bulk", 1, "DecodeSession::decode_frame(Strict)", 37, 603376),
    ("bulk", 1, "DecodeSession::decode_frame(Repair)", 3945, 868576),
    ("bulk", 1, "decode_stream_reader", 7092, 251666),
    ("bulk", 1, "Archive::decode_range", 137, 64848),
    ("bulk", 1, "encode_frame", 5667, 470675),
    ("bulk", 3, "Engine::decode_frame", 46, 603808 + KIB),
    ("bulk", 3, "execute_plan(Strict)", 36, 456352 + KIB),
    ("bulk", 3, "DecodeSession::decode_frame(Strict)", 47, 603808 + KIB),
    ("bulk", 3, "DecodeSession::decode_frame(Repair)", 3955, 868736 + KIB),
    ("bulk", 3, "decode_stream_reader", 6440, 252817 + KIB),
    ("bulk", 3, "Archive::decode_range", 147, 65280 + KIB),
    ("bulk", 3, "encode_frame", 5677, 470675 + KIB),
];

/// The strict decodes, which allocate nothing per data segment.
const STRICT: [&str; 3] = [
    "Engine::decode_frame",
    "execute_plan(Strict)",
    "DecodeSession::decode_frame(Strict)",
];

/// How far the larger frame's strict count may exceed the request-size
/// frame's at one thread: `Vec` growth, not work per segment.
const PER_FRAME_GROWTH: u64 = 16;

/// One frame shape: its name, source, segment size and the archive
/// range its `decode_range` reads.
struct Shape {
    name: &'static str,
    profile: SyntheticProfile,
    segment_bits: usize,
    range: (usize, usize),
}

/// Measures every call on `shape` at `threads`, in [`CALLS`] order.
fn measure_shape(shape: &Shape, threads: usize, dir: &std::path::Path) -> Vec<Usage> {
    let set = shape.profile.generate(1);
    let stream = set.as_stream();
    let engine = Engine::builder()
        .threads(threads)
        .segment_bits(shape.segment_bits)
        .parity(4, 1)
        .build();
    let frame = engine.encode_frame(8, stream).expect("frame encodes");
    let plan = engine.build_plan(&frame).expect("clean frame plans");
    let session = DecodeSession::new().threads(threads);
    let path = dir.join(format!("{}-t{threads}.9ca", shape.name));
    let mut archive = Archive::create(&path, &engine).expect("archive creates");
    archive.append_frame(&frame).expect("frame appends");
    let (start, len) = shape.range;
    let calls: [&dyn Fn(); 7] = [
        &|| {
            engine.decode_frame(&frame).expect("clean frame decodes");
        },
        &|| {
            engine
                .execute_plan(&plan, Policy::Strict)
                .expect("clean frame decodes");
        },
        &|| {
            session
                .decode_frame(&frame, Policy::Strict)
                .expect("clean frame decodes");
        },
        &|| {
            session
                .decode_frame(&frame, Policy::Repair)
                .expect("clean frame decodes");
        },
        &|| {
            engine
                .decode_stream_reader(&mut FrameReader::new(std::io::Cursor::new(&frame)))
                .expect("clean frame streams");
        },
        &|| {
            archive.decode_range(0, start, len).expect("range decodes");
        },
        &|| {
            engine.encode_frame(8, stream).expect("frame encodes");
        },
    ];
    calls.iter().map(|call| measure(*call)).collect()
}

#[test]
fn warm_calls_stay_within_their_allocation_budget() {
    ninec_obs::set_runtime_enabled(false);
    let dir = std::env::temp_dir().join(format!("ninec_alloc_budget_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let shapes = [
        Shape {
            name: "req",
            profile: SyntheticProfile::new("req", 40, 250, 0.8),
            segment_bits: 256,
            range: (300, 2_000),
        },
        Shape {
            name: "bulk",
            profile: SyntheticProfile::new("bulk", 1000, 1000, 0.9),
            segment_bits: 1024,
            range: (3_000, 100_000),
        },
    ];
    let mut measured = Vec::new();
    for shape in &shapes {
        for threads in [1usize, 3] {
            for (call, usage) in CALLS.iter().zip(measure_shape(shape, threads, &dir)) {
                println!(
                    "{:>4} t{threads} {call:<36} {:>6} allocations {:>9} peak bytes",
                    shape.name, usage.allocs, usage.peak_bytes
                );
                measured.push((shape.name, threads, *call, usage));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let mut over = Vec::new();
    for &(frame, threads, call, usage) in &measured {
        let bound = BOUNDS
            .iter()
            .find(|b| (b.0, b.1, b.2) == (frame, threads, call))
            .expect("every measured call has a bound");
        if usage.allocs > bound.3 || usage.peak_bytes > bound.4 {
            over.push(format!(
                "{frame} t{threads} {call}: {usage:?} over ({}, {})",
                bound.3, bound.4
            ));
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
    let allocs = |frame: &str, call: &str| {
        measured
            .iter()
            .find(|m| (m.0, m.1, m.2) == (frame, 1, call))
            .map(|m| m.3.allocs)
            .expect("measured")
    };
    for call in STRICT {
        let (small, large) = (allocs("req", call), allocs("bulk", call));
        assert!(
            large <= small + PER_FRAME_GROWTH,
            "{call} allocates per data segment: {small} on 40 segments, {large} on 977"
        );
    }
}
