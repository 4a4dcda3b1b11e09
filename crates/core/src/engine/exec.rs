//! A reusable, std-only work-stealing executor with two job priorities.
//!
//! The engine's unit of work is a *segment index*: all jobs are known up
//! front, none spawns new ones, and every job writes exactly one result
//! slot, returned in job-index order. What the executor adds over a
//! plain pool is a **two-level priority**: every
//! job is seeded as [`Priority::High`] or [`Priority::Low`], and no
//! worker starts a `Low` job while any `High` job is still queued
//! anywhere. The decode pipeline uses this to keep payload decodes
//! (latency-critical, always needed) ahead of repair/salvage backfill
//! work, and it is the executor a future `ninec-serve` can multiplex
//! connections onto.
//!
//! Scheduling shape (per priority level): per-worker deques seeded round-robin, LIFO pops from the owner, FIFO
//! steals from siblings. A worker drains `High` — its own deque, then
//! every sibling's — before touching any `Low` deque; since jobs are
//! only ever removed after seeding, a worker that finds every `High`
//! deque empty has proof that every `High` job has already *started*.
//!
//! Determinism: results are keyed by job index and collected in index
//! order, so the returned vector is independent of worker interleaving.
//! `threads <= 1` (or a single job) short-circuits to a serial in-caller
//! loop that runs every `High` job in index order, then every `Low` job
//! in index order.
//!
//! Panic isolation: every job runs under
//! [`std::panic::catch_unwind`], so a panicking closure poisons only its
//! own result slot — it surfaces as a [`JobPanic`] value while every
//! other job's result is delivered intact, and the index-ordered merge
//! can never deadlock on a missing slot. The serial fallback catches
//! panics the same way, so `threads = 1` isolates identically to
//! `threads = 8`. ([`map_indexed`], which the encode paths use, re-raises
//! a job's panic instead: there a panic is a bug, not a decode verdict.)
//!
//! Cancellation: [`run_cancellable`] threads an optional
//! [`CancelToken`] through both paths. The token is checked *between*
//! jobs — at the serial loop boundary and at the pooled pop boundary —
//! so a tripped token abandons every not-yet-started job as
//! [`JobOutcome::Cancelled`] (its closure never runs) while jobs
//! already in flight finish and store real results. The deques then
//! drain at queue-op speed, which is what lets `ninec-serve` reclaim a
//! worker the moment a caller hangs up or a deadline passes.
//!
//! Telemetry (batched at job boundaries, never inside a job): each
//! worker publishes its queue depth to the
//! `ninec.engine.worker.<i>.queue_depth` gauge after every pop, and its
//! steal/completion/busy-time tallies once at exit
//! (`ninec.engine.steals`, `ninec.engine.segments`,
//! `ninec.engine.worker.<i>.busy_ns`). On top of the aggregates, every
//! job runs inside a flight-recorder `"job"` span stamped with the
//! worker id, the job's priority class and its queue-vs-steal
//! provenance — the Fig 4c load imbalance as a reconstructable
//! timeline. Workers inherit the submitting thread's trace context, and
//! a caught panic flushes the worker's ring into the global recorder
//! before the poisoned slot is reported.

use super::cancel::CancelToken;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Upper bound on worker threads — keeps the per-worker gauge family
/// bounded and guards against absurd `NINEC_THREADS` values.
pub const MAX_THREADS: usize = 256;

/// Jobs admitted to any in-flight [`run_prioritized`] call, process-wide.
static ACTIVE_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Current executor load: the number of jobs admitted to (queued on or
/// running inside) every in-flight [`run_prioritized`] call in this
/// process. The count is batch-grained — a call contributes all of its
/// jobs from entry until *every* slot is merged — which is exactly the
/// "work still outstanding" signal an admission controller wants:
/// `ninec-serve` consults it (together with its own decode window) to
/// decide when to shed repair/salvage backfill under load.
#[must_use]
pub fn active_jobs() -> usize {
    ACTIVE_JOBS.load(Ordering::Relaxed)
}

/// RAII registration of one batch on the [`active_jobs`] tally. Drop
/// (including during an unwind out of the executor) always retires the
/// batch, so the gauge can never leak upward.
struct ActiveBatch {
    jobs: usize,
}

impl ActiveBatch {
    fn admit(jobs: usize) -> Self {
        ACTIVE_JOBS.fetch_add(jobs, Ordering::Relaxed);
        ActiveBatch { jobs }
    }
}

impl Drop for ActiveBatch {
    fn drop(&mut self) {
        ACTIVE_JOBS.fetch_sub(self.jobs, Ordering::Relaxed);
    }
}

/// Scheduling class of one job. `High` jobs are guaranteed to *start*
/// before any `Low` job whose worker could see them queued; `Low` jobs
/// are backfill that must never starve the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Critical-path work (segment decodes): always scheduled first.
    High,
    /// Backfill work (repair reconstruction, salvage bookkeeping):
    /// scheduled only when no `High` job is queued.
    Low,
}

/// A caught panic from one executor job, carrying the panic message when
/// the payload was a string (the common `panic!("…")` case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload rendered as text, or a placeholder for
    /// non-string payloads.
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// What became of one submitted job: its value, a caught panic, or an
/// abandonment because the batch's [`CancelToken`] tripped before the
/// job started. Jobs are never interrupted mid-run — a `Cancelled` slot
/// means the closure was **never invoked** for that index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Done(T),
    /// The job panicked; the panic was caught at the slot boundary.
    Panicked(JobPanic),
    /// The batch's [`CancelToken`] tripped before this job started.
    Cancelled,
}

/// Runs `thunk` under `catch_unwind`, converting a panic payload into a
/// [`JobPanic`]. The closure owns (or safely shares) its data, so
/// observing state after a caught panic is sound: a poisoned job's
/// partial effects never escape its own result slot.
fn run_caught<T>(thunk: impl FnOnce() -> T) -> Result<T, JobPanic> {
    match catch_unwind(AssertUnwindSafe(thunk)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(JobPanic { message })
        }
    }
}

/// One worker's pair of deques, one per priority level.
#[derive(Default)]
struct Queues {
    high: VecDeque<usize>,
    low: VecDeque<usize>,
}

/// Locks a worker's queues, recovering from poisoning. Jobs run
/// *outside* the queue locks (the critical sections below are plain
/// `VecDeque` ops that cannot panic), so a poisoned mutex can only mean
/// a job panicked elsewhere — the queue data itself is still consistent.
fn lock_queues<'a>(queues: &'a [Mutex<Queues>], w: usize) -> MutexGuard<'a, Queues> {
    match queues[w].lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs `f(0..jobs)` across at most `threads` workers at
/// [`Priority::High`] and returns the results in job-index order.
///
/// # Panics
///
/// Propagates a panic from `f` (re-raised on the calling thread after
/// every worker has drained; no other job's result is lost first). Use
/// [`run_prioritized`] to receive panics as values instead.
pub fn map_indexed<T, F>(threads: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(jobs);
    for (i, r) in run_prioritized(threads, jobs, |_| Priority::High, f)
        .into_iter()
        .enumerate()
    {
        match r {
            Ok(v) => out.push(v),
            Err(p) => panic!("executor job {i} panicked: {}", p.message),
        }
    }
    out
}

/// Runs `f(0..jobs)` across at most `threads` workers, scheduling each
/// job at `priority(job)`, and returns the results in job-index order —
/// slot `i` holds `Ok(f(i))`, or `Err(JobPanic)` when `f(i)` panicked.
///
/// Priorities affect only *when* a job starts, never the returned
/// vector. No `Low` job starts while a `High` job is still queued on any
/// worker; once a `Low` job has been popped, every `High` job has
/// already started (all jobs are seeded before the workers spawn and
/// queues only drain).
///
/// With `threads <= 1` or fewer than two jobs the closure runs serially
/// on the calling thread: every `High` job in index order, then every
/// `Low` job in index order.
pub fn run_prioritized<T, F, P>(
    threads: usize,
    jobs: usize,
    priority: P,
    f: F,
) -> Vec<Result<T, JobPanic>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
    P: Fn(usize) -> Priority,
{
    run_cancellable(threads, jobs, priority, None, f)
        .into_iter()
        .map(|out| match out {
            JobOutcome::Done(v) => Ok(v),
            JobOutcome::Panicked(p) => Err(p),
            // Unreachable without a token; stay total instead of panicking.
            JobOutcome::Cancelled => Err(JobPanic {
                message: "job cancelled without a cancel token".to_string(),
            }),
        })
        .collect()
}

/// [`run_prioritized`] with cooperative cancellation: `cancel` (when
/// given) is checked **between** jobs — once the token trips, every job
/// not yet started resolves to [`JobOutcome::Cancelled`] without its
/// closure running, while jobs already in flight finish normally. The
/// serial fallback checks the token at exactly the same boundary, so
/// `threads = 1` cancels identically to `threads = 8`. A token that is
/// already tripped on entry yields an all-`Cancelled` vector with zero
/// closure invocations.
pub fn run_cancellable<T, F, P>(
    threads: usize,
    jobs: usize,
    priority: P,
    cancel: Option<&CancelToken>,
    f: F,
) -> Vec<JobOutcome<T>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
    P: Fn(usize) -> Priority,
{
    let threads = threads.clamp(1, MAX_THREADS);
    // Batch-grained load registration: all `jobs` count as outstanding
    // until the index-ordered merge below completes (RAII, unwind-safe).
    let _batch = ActiveBatch::admit(jobs);
    if threads <= 1 || jobs <= 1 {
        // The serial fallback isolates panics exactly like the pooled
        // path and honors the same High-before-Low start order. On the
        // trace timeline it is worker 0 (restored afterwards: the
        // caller's thread outlives this call).
        let prev_worker = ninec_obs::set_trace_worker(0);
        let mut busy = 0u64;
        let mut slots: Vec<Option<JobOutcome<T>>> = (0..jobs).map(|_| None).collect();
        for want in [Priority::High, Priority::Low] {
            for (i, slot) in slots.iter_mut().enumerate() {
                if priority(i) == want {
                    // The cancellation boundary: checked between jobs,
                    // never mid-decode, matching the pooled path.
                    if cancel.is_some_and(CancelToken::is_tripped) {
                        *slot = Some(JobOutcome::Cancelled);
                        continue;
                    }
                    let _job_span = ninec_obs::trace_span_scope(
                        "job",
                        ninec_obs::NO_SEGMENT,
                        ninec_obs::TracePayload::Job {
                            index: i as u32,
                            high: want == Priority::High,
                            stolen: false,
                        },
                    );
                    let start = std::time::Instant::now();
                    let out = run_caught(|| f(i));
                    busy += start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    if out.is_err() {
                        // Park the timeline so far before reporting the
                        // poisoned slot.
                        ninec_obs::flush_thread_trace();
                    }
                    *slot = Some(match out {
                        Ok(v) => JobOutcome::Done(v),
                        Err(p) => JobOutcome::Panicked(p),
                    });
                }
            }
        }
        crate::metrics::publish_worker_busy(0, busy);
        let _ = ninec_obs::set_trace_worker(prev_worker);
        return slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    JobOutcome::Panicked(JobPanic {
                        message: "worker exited without storing a result".to_string(),
                    })
                })
            })
            .collect();
    }
    let workers = threads.min(jobs);
    // Priorities are resolved once into a table: seeding reads it here,
    // and workers reuse it to stamp each job's class on the trace.
    let prios: Vec<Priority> = (0..jobs).map(&priority).collect();
    // Round-robin seeding per level: job i starts on worker i % workers.
    let queues: Vec<Mutex<Queues>> = {
        let mut qs: Vec<Queues> = (0..workers).map(|_| Queues::default()).collect();
        for (job, prio) in prios.iter().enumerate() {
            match prio {
                Priority::High => qs[job % workers].high.push_back(job),
                Priority::Low => qs[job % workers].low.push_back(job),
            }
        }
        qs.into_iter().map(Mutex::new).collect()
    };
    let slots: Vec<OnceLock<JobOutcome<T>>> = (0..jobs).map(|_| OnceLock::new()).collect();
    // Workers record onto the submitting thread's trace, nested under
    // its currently open span.
    let trace_ctx = ninec_obs::trace_context();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            let prios = &prios;
            scope.spawn(move || {
                ninec_obs::set_trace_context(trace_ctx.0, trace_ctx.1);
                let _ = ninec_obs::set_trace_worker(w as u32);
                let mut steals = 0u64;
                let mut done = 0u64;
                let mut busy = 0u64;
                loop {
                    let steals_before = steals;
                    let job = match pop_own(queues, w) {
                        Some(job) => Some(job),
                        None => steal(queues, w, &mut steals),
                    };
                    let Some(job) = job else { break };
                    // The cancellation boundary: a tripped token turns
                    // every not-yet-started job into a `Cancelled` slot,
                    // so the deques drain at queue-op speed and the merge
                    // below still sees every index filled.
                    if cancel.is_some_and(CancelToken::is_tripped) {
                        let _ = slots[job].set(JobOutcome::Cancelled);
                        continue;
                    }
                    // A steal tally that moved during this pop means the
                    // job came off a sibling's deque, not our own.
                    let stolen = steals > steals_before;
                    // One gauge write per job — batched at the job
                    // boundary, never inside the encode/decode hot loop.
                    crate::metrics::publish_worker_queue_depth(w, queue_len(queues, w));
                    let _job_span = ninec_obs::trace_span_scope(
                        "job",
                        ninec_obs::NO_SEGMENT,
                        ninec_obs::TracePayload::Job {
                            index: job as u32,
                            high: prios[job] == Priority::High,
                            stolen,
                        },
                    );
                    // The catch_unwind here is the panic-isolation
                    // boundary: a panicking job poisons only slot `job`.
                    let start = std::time::Instant::now();
                    let out = run_caught(|| f(job));
                    busy += start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    if out.is_err() {
                        // Park this worker's timeline in the global ring
                        // before the poisoned slot is reported.
                        ninec_obs::flush_thread_trace();
                    }
                    // Each job index is popped exactly once, so the slot is
                    // empty; a second set is impossible by construction.
                    let _ = slots[job].set(match out {
                        Ok(v) => JobOutcome::Done(v),
                        Err(p) => JobOutcome::Panicked(p),
                    });
                    done += 1;
                }
                crate::metrics::publish_pool_worker(steals, done);
                crate::metrics::publish_worker_busy(w, busy);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            // Every index was queued exactly once and its worker either
            // stored a value, a caught JobPanic, or a Cancelled marker;
            // an empty slot would mean a worker died outside
            // catch_unwind, which the isolation boundary makes
            // unreachable — but stay total regardless.
            slot.into_inner().unwrap_or_else(|| {
                JobOutcome::Panicked(JobPanic {
                    message: "worker exited without storing a result".to_string(),
                })
            })
        })
        .collect()
}

/// LIFO pop from the worker's own deques, `High` first (hot segments
/// stay cache-warm). A worker only reads its own `Low` deque after its
/// own `High` deque *and every sibling's* are empty — see [`steal`].
fn pop_own(queues: &[Mutex<Queues>], w: usize) -> Option<usize> {
    lock_queues(queues, w).high.pop_back()
}

/// Current total depth of the worker's own deques.
fn queue_len(queues: &[Mutex<Queues>], w: usize) -> usize {
    let q = lock_queues(queues, w);
    q.high.len() + q.low.len()
}

/// Finds the next job for an own-`High`-empty worker, in strict priority
/// order: steal `High` from a sibling (FIFO, scanning from `w + 1`
/// round-robin so the load spreads instead of piling on worker 0), then
/// pop own `Low`, then steal `Low`. Because every queue only drains, a
/// scan that found all `High` deques empty proves every `High` job has
/// started — so a `Low` pop can never overtake a queued `High` job.
fn steal(queues: &[Mutex<Queues>], w: usize, steals: &mut u64) -> Option<usize> {
    let n = queues.len();
    for off in 1..n {
        let victim = (w + off) % n;
        let job = lock_queues(queues, victim).high.pop_front();
        if let Some(job) = job {
            *steals += 1;
            return Some(job);
        }
    }
    if let Some(job) = lock_queues(queues, w).low.pop_back() {
        return Some(job);
    }
    for off in 1..n {
        let victim = (w + off) % n;
        let job = lock_queues(queues, victim).low.pop_front();
        if let Some(job) = job {
            *steals += 1;
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn all_high(_: usize) -> Priority {
        Priority::High
    }

    #[test]
    fn results_are_index_ordered_regardless_of_priority() {
        for threads in [1usize, 2, 8] {
            let out = run_prioritized(
                threads,
                37,
                |i| {
                    if i % 3 == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    }
                },
                |i| i * i,
            );
            let vals: Vec<usize> = out.into_iter().map(|r| r.expect("no panics")).collect();
            assert_eq!(vals, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once_across_priorities() {
        let hits: Vec<AtomicUsize> = (0..96).map(|_| AtomicUsize::new(0)).collect();
        let out = run_prioritized(
            8,
            96,
            |i| {
                if i < 48 {
                    Priority::High
                } else {
                    Priority::Low
                }
            },
            |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
                i
            },
        );
        assert_eq!(out.len(), 96);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn serial_fallback_runs_high_then_low_in_index_order() {
        let order = Mutex::new(Vec::new());
        run_prioritized(
            1,
            10,
            |i| {
                if i % 2 == 0 {
                    Priority::Low
                } else {
                    Priority::High
                }
            },
            |i| order.lock().expect("no poisoned lock").push(i),
        );
        let order = order.into_inner().expect("no poisoned lock");
        assert_eq!(order, vec![1, 3, 5, 7, 9, 0, 2, 4, 6, 8]);
    }

    /// The starvation guarantee under an oversubscribed pool: at the
    /// moment any `Low` job starts, every `High` job has started too —
    /// up to the threads-1 that may sit between their pop and their
    /// start-log write.
    #[test]
    fn low_jobs_never_overtake_queued_high_jobs_under_stress() {
        const THREADS: usize = 8;
        const HIGH: usize = 200;
        const LOW: usize = 200;
        for round in 0..10 {
            let starts = Mutex::new(Vec::with_capacity(HIGH + LOW));
            let out = run_prioritized(
                THREADS,
                HIGH + LOW,
                |i| {
                    if i < HIGH {
                        Priority::High
                    } else {
                        Priority::Low
                    }
                },
                |i| {
                    starts.lock().expect("no poisoned lock").push(i);
                    // Skew the load so workers race each other hard.
                    if i % 13 == round {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    } else if i % 5 == 0 {
                        std::thread::yield_now();
                    }
                    i
                },
            );
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, r)| r.as_ref().ok() == Some(&i)));
            let starts = starts.into_inner().expect("no poisoned lock");
            assert_eq!(starts.len(), HIGH + LOW, "round {round}");
            let mut high_started = 0usize;
            for &i in &starts {
                if i < HIGH {
                    high_started += 1;
                } else {
                    let unstarted = HIGH - high_started;
                    assert!(
                        unstarted < THREADS,
                        "round {round}: low job {i} started with {unstarted} high jobs unstarted"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panicking_low_job_poisons_only_its_slot() {
        for threads in [1usize, 8] {
            let out = run_prioritized(
                threads,
                16,
                |i| {
                    if i >= 12 {
                        Priority::Low
                    } else {
                        Priority::High
                    }
                },
                |i| {
                    if i == 14 {
                        panic!("backfill boom {i}");
                    }
                    i
                },
            );
            for (i, r) in out.iter().enumerate() {
                if i == 14 {
                    let p = r.as_ref().expect_err("job 14 panicked");
                    assert!(p.message.contains("backfill boom 14"), "{p:?}");
                } else {
                    assert_eq!(r.as_ref().ok(), Some(&i), "threads={threads} job {i}");
                }
            }
        }
    }

    #[test]
    fn active_jobs_counts_batches_in_flight_and_retires_them() {
        let floor = active_jobs();
        // While one of our 12 jobs runs, our batch contributes all 12 to
        // the tally (other tests can only add on top, never subtract our
        // share), so every job must observe at least 12.
        let seen = run_prioritized(4, 12, all_high, |_| active_jobs());
        for r in &seen {
            let inside = *r.as_ref().expect("no panics");
            assert!(inside >= 12, "a job observed only {inside} active jobs");
        }
        // The batch retires even when a job panics (RAII on unwind). The
        // tally is shared with concurrently running tests, so wait for it
        // to dip back to the starting floor instead of asserting once: a
        // leaked batch would keep it permanently above.
        let _ = run_prioritized(2, 4, all_high, |i| {
            if i == 1 {
                panic!("boom");
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while active_jobs() > floor {
            assert!(
                std::time::Instant::now() < deadline,
                "active_jobs never returned to {floor}: batches leaked"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn zero_jobs_and_single_job_edge_cases() {
        assert!(run_prioritized(8, 0, all_high, |i| i).is_empty());
        let one = run_prioritized(8, 1, |_| Priority::Low, |i| i + 7);
        assert_eq!(one[0].as_ref().ok(), Some(&7));
    }

    #[test]
    fn a_pre_tripped_token_cancels_every_job_without_running_any() {
        for threads in [1usize, 8] {
            let ran = AtomicUsize::new(0);
            let token = CancelToken::new();
            token.cancel();
            let out = run_cancellable(threads, 24, all_high, Some(&token), |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(out.len(), 24);
            assert!(
                out.iter().all(|o| matches!(o, JobOutcome::Cancelled)),
                "threads={threads}"
            );
            assert_eq!(ran.load(Ordering::SeqCst), 0, "threads={threads}");
        }
    }

    #[test]
    fn a_mid_batch_cancel_abandons_the_tail_and_retires_the_batch() {
        let floor = active_jobs();
        let token = CancelToken::new();
        let out = run_cancellable(4, 64, all_high, Some(&token), |i| {
            if i % 16 == 0 {
                token.cancel();
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            i
        });
        // Every slot resolved: in-flight jobs finished, the tail was
        // abandoned at the pop boundary, nothing panicked or hung.
        let done = out
            .iter()
            .filter(|o| matches!(o, JobOutcome::Done(_)))
            .count();
        let cancelled = out
            .iter()
            .filter(|o| matches!(o, JobOutcome::Cancelled))
            .count();
        assert_eq!(done + cancelled, 64);
        assert!(cancelled > 0, "cancel arrived with jobs still queued");
        // Cancellation reclaims workers: the load gauge dips back to the
        // pre-batch floor (shared with concurrent tests — poll, don't
        // assert once).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while active_jobs() > floor {
            assert!(
                std::time::Instant::now() < deadline,
                "active_jobs never returned to {floor} after a cancel"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn an_expired_deadline_cancels_the_remaining_jobs() {
        let token = CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let out = run_cancellable(2, 8, all_high, Some(&token), |i| i);
        assert!(out.iter().all(|o| matches!(o, JobOutcome::Cancelled)));
    }

    #[test]
    fn a_live_token_changes_nothing() {
        let token = CancelToken::after(std::time::Duration::from_secs(3600));
        let out = run_cancellable(4, 16, all_high, Some(&token), |i| i * 2);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o, &JobOutcome::Done(i * 2));
        }
    }

    #[test]
    fn map_indexed_serial_fallback_matches_parallel() {
        let serial = map_indexed(1, 17, |i| i * i);
        let parallel = map_indexed(4, 17, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn results_stay_in_index_order_under_skewed_load() {
        // Make early jobs slow so late jobs finish first; order must hold.
        let out = map_indexed(4, 12, |i| {
            if i < 3 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 10
        });
        assert_eq!(out, (0..12).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn all_jobs_panicking_still_terminates() {
        let out = run_prioritized::<usize, _, _>(4, 8, all_high, |i| panic!("all down {i}"));
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|r| r.is_err()));
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let out =
            run_prioritized::<usize, _, _>(1, 1, all_high, |_| std::panic::panic_any(42usize));
        assert_eq!(
            out[0].as_ref().expect_err("panicked").message,
            "non-string panic payload"
        );
    }

    #[test]
    fn map_indexed_propagates_a_job_panic() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(2, 4, |i| {
                if i == 2 {
                    panic!("expected propagation");
                }
                i
            })
        });
        assert!(caught.is_err());
    }
}
