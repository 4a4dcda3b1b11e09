//! Multi-threaded hammer test: 8 threads increment the same counter and
//! histogram handles; totals must be exact (no lost updates).

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const THREADS: u64 = 8;
const ITERS: u64 = 10_000;

#[test]
fn eight_threads_exact_totals() {
    let reg = ninec_obs::global();
    let counter = reg.counter("conc.hits");
    let hist = reg.histogram("conc.values");

    thread::scope(|s| {
        for t in 0..THREADS {
            let counter = counter.clone();
            let hist = hist.clone();
            s.spawn(move || {
                for i in 0..ITERS {
                    counter.inc();
                    // Deterministic value mix spanning several buckets.
                    hist.record(t * ITERS + i);
                }
            });
        }
    });

    assert_eq!(counter.get(), THREADS * ITERS);
    assert_eq!(hist.count(), THREADS * ITERS);
    // Sum of 0 .. THREADS*ITERS - 1.
    let n = THREADS * ITERS;
    assert_eq!(hist.sum(), n * (n - 1) / 2);
    assert_eq!(hist.min(), Some(0));
    assert_eq!(hist.max(), Some(n - 1));
    // The snapshot agrees and its buckets account for every sample.
    let snap = reg.snapshot();
    let hs = snap.histogram("conc.values").unwrap();
    assert_eq!(hs.buckets.iter().map(|&(_, c)| c).sum::<u64>(), n);
}

#[test]
fn snapshot_under_load_is_internally_consistent() {
    // Satellite of the flight-recorder PR: a snapshot taken *while* 8
    // writers hammer the histogram must still be a coherent document —
    // its count equals the sum of its own bucket counts, never a torn
    // mix of "count from now, buckets from a moment ago".
    let reg = ninec_obs::global();
    let hist = reg.histogram("conc.load.values");
    let stop = AtomicBool::new(false);

    thread::scope(|s| {
        for t in 0..THREADS {
            let hist = hist.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Values spread across many log2 buckets.
                    hist.record((t + 1) << (i % 48));
                    i += 1;
                }
            });
        }
        for _ in 0..200 {
            let snap = reg.snapshot();
            if let Some(hs) = snap.histogram("conc.load.values") {
                assert_eq!(
                    hs.count,
                    hs.buckets.iter().map(|&(_, c)| c).sum::<u64>(),
                    "snapshot count must equal the sum of its bucket counts"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesced: the final snapshot agrees with the handle exactly.
    let snap = reg.snapshot();
    let hs = snap.histogram("conc.load.values").unwrap();
    assert_eq!(hs.count, hist.count());
    assert_eq!(
        hs.buckets.iter().map(|&(_, c)| c).sum::<u64>(),
        hist.count()
    );
}

#[test]
fn concurrent_get_or_register_is_one_handle() {
    // All threads asking for the same name must share one underlying slot.
    let reg = ninec_obs::global();
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..ITERS {
                    reg.counter("conc.shared").inc();
                }
            });
        }
    });
    assert_eq!(reg.counter("conc.shared").get(), THREADS * ITERS);
}
