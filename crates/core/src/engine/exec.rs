//! A reusable, std-only executor with two job priorities.
//!
//! The engine's unit of work is a *segment index*: all jobs are known up
//! front, none spawns new ones, and every job writes exactly one result
//! slot, returned in job-index order. What the executor adds over a
//! plain parallel map is a **two-level priority**: every job is
//! [`Priority::High`] or [`Priority::Low`], and no `Low` job is claimed
//! while any `High` job is still unclaimed. The decode pipeline uses this
//! to keep payload decodes (latency-critical, always needed) ahead of
//! repair/salvage backfill work, and it is the executor a future
//! `ninec-serve` can multiplex connections onto.
//!
//! Scheduling shape: the claim order is built once — every `High` job in
//! index order, then every `Low` job in index order — and workers take
//! the next position from one atomic cursor (`fetch_add`) until the
//! order runs out. The calling thread runs that loop as worker 0 beside
//! `threads − 1` scoped spawns, so `threads = 1` spawns nothing and *is*
//! the serial path. The priority rule is structural: a worker that
//! claims a `Low` position has proof that every `High` position was
//! claimed before it.
//!
//! Determinism: results are keyed by job index and collected in index
//! order, so the returned vector is independent of worker interleaving.
//!
//! Panic isolation: every job runs under
//! [`std::panic::catch_unwind`], so a panicking closure poisons only its
//! own result slot — it surfaces as a [`JobPanic`] value while every
//! other job's result is delivered intact, and the index-ordered merge
//! can never deadlock on a missing slot. ([`map_indexed`], which the
//! encode paths use, re-raises a job's panic instead: there a panic is a
//! bug, not a decode verdict.)
//!
//! Cancellation: an optional [`CancelToken`] is checked at the claim
//! boundary, never mid-job (see [`run_cancellable`]). The cursor then
//! runs out at one atomic op per job, which is what lets `ninec-serve`
//! reclaim a worker the moment a caller hangs up or a deadline passes.
//!
//! Telemetry (batched at job boundaries, never inside a job): each
//! worker, the caller included, publishes its completion and busy-time
//! tallies once, at the end of its job loop (`ninec.engine.segments`,
//! `ninec.engine.worker.<i>.busy_ns`, through handles resolved once per
//! worker index). Jobs publish nothing: each returns its own tallies
//! with its result, and the calling code publishes their sums once. On
//! top of the aggregates, every job runs inside a flight-recorder
//! `"job"` span stamped with the worker id and the job's priority class
//! — the Fig 4c load imbalance as a reconstructable timeline. Spawned workers inherit the submitting
//! thread's trace context and flush their ring into the global recorder
//! at the end of their job loop, so a call's events are all there when
//! it returns; a caught panic flushes the worker's ring before the
//! poisoned slot is reported.

use super::cancel::CancelToken;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on worker threads — one per cell of the per-worker
/// `busy_ns` counter family, and a guard against absurd `NINEC_THREADS`
/// values.
pub const MAX_THREADS: usize = ninec_obs::catalogue::MAX_WORKERS;

/// Jobs admitted to any in-flight [`run_cancellable`] call, process-wide.
static ACTIVE_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Current executor load: the number of jobs admitted to (queued on or
/// running inside) every in-flight [`run_cancellable`] call in this
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

/// Scheduling class of one job. Every `High` job is claimed before any
/// `Low` job; `Low` jobs are backfill that must never starve the
/// critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Critical-path work (segment decodes): always claimed first.
    High,
    /// Backfill work (repair reconstruction, salvage bookkeeping):
    /// claimed only once every `High` job has been.
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
/// job was claimed. Jobs are never interrupted mid-run — a `Cancelled`
/// slot means the closure was **never invoked** for that index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Done(T),
    /// The job panicked; the panic was caught at the slot boundary.
    Panicked(JobPanic),
    /// The batch's [`CancelToken`] tripped before this job was claimed.
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

/// Runs `f(0..jobs)` across at most `threads` workers at
/// [`Priority::High`] and returns the results in job-index order.
///
/// # Panics
///
/// Propagates a panic from `f` (re-raised on the calling thread after
/// every worker has drained; no other job's result is lost first). Use
/// [`run_cancellable`] to receive panics as values instead.
pub fn map_indexed<T, F>(threads: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    run_cancellable(threads, jobs, |_| Priority::High, None, f)
        .into_iter()
        .enumerate()
        .map(|(i, out)| match out {
            JobOutcome::Done(v) => v,
            JobOutcome::Panicked(p) => panic!("executor job {i} panicked: {}", p.message),
            JobOutcome::Cancelled => unreachable!("job {i} cancelled without a cancel token"),
        })
        .collect()
}

/// Runs `f(0..jobs)` across at most `threads` workers, claiming each job
/// at `priority(job)`, and returns the results in job-index order — slot
/// `i` holds [`JobOutcome::Done`]`(f(i))`, or [`JobOutcome::Panicked`]
/// when `f(i)` panicked.
///
/// Priorities affect only *when* a job starts, never the returned
/// vector: every `High` job is claimed, in index order, before any `Low`
/// job, and `Low` jobs are claimed in index order too. At `threads = 1`
/// (or a single job) the calling thread runs them all in that order.
///
/// `cancel` (when given) is checked at the claim boundary: once the
/// token trips, every job not yet claimed resolves to
/// [`JobOutcome::Cancelled`] without its closure running, while jobs
/// already in flight finish normally. A token that is already tripped on
/// entry yields an all-`Cancelled` vector with zero closure invocations.
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
    // Batch-grained load registration: all `jobs` count as outstanding
    // until the index-ordered merge below completes (RAII, unwind-safe).
    let _batch = ActiveBatch::admit(jobs);
    // The claim order: the `High` jobs (positions `..high`), then the
    // `Low` jobs, each in index order.
    let (mut order, low): (Vec<usize>, Vec<usize>) =
        (0..jobs).partition(|&job| priority(job) == Priority::High);
    let high = order.len();
    order.extend(low);
    // `Relaxed` is enough: the cursor publishes no data (`order` predates
    // the workers; slots sync through `OnceLock` and the scope join), and
    // RMWs on one atomic still claim each position exactly once, in order.
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<JobOutcome<T>>> = (0..jobs).map(|_| OnceLock::new()).collect();
    let worker = &|w: usize| {
        let (mut done, mut busy) = (0u64, 0u64);
        loop {
            let pos = next.fetch_add(1, Ordering::Relaxed);
            let Some(&job) = order.get(pos) else { break };
            // The cancellation boundary: a tripped token turns every
            // job not yet claimed into a `Cancelled` slot, so the cursor
            // runs out at one atomic op per job and the merge below
            // still sees every index filled.
            if cancel.is_some_and(CancelToken::is_tripped) {
                let _ = slots[job].set(JobOutcome::Cancelled);
                continue;
            }
            let _job_span = ninec_obs::catalogue::SPAN_JOB.start_at(
                ninec_obs::NO_SEGMENT,
                ninec_obs::TracePayload::Job {
                    index: job as u32,
                    high: pos < high,
                },
            );
            // The catch_unwind here is the panic-isolation boundary: a
            // panicking job poisons only slot `job`. The busy time is
            // read off the clock only while telemetry can publish it.
            let start = ninec_obs::runtime_enabled().then(std::time::Instant::now);
            let out = run_caught(|| f(job));
            if let Some(start) = start {
                busy += start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            }
            let out = match out {
                Ok(v) => JobOutcome::Done(v),
                Err(p) => {
                    // Park this worker's timeline in the global ring
                    // before the poisoned slot is reported.
                    ninec_obs::flush_thread_trace();
                    JobOutcome::Panicked(p)
                }
            };
            // Each position is claimed exactly once, so the slot is
            // empty; a second set is impossible by construction.
            let _ = slots[job].set(out);
            done += 1;
        }
        crate::metrics::publish_worker(w, done, busy);
    };
    let workers = threads.clamp(1, MAX_THREADS).min(jobs.max(1));
    // Spawned workers record onto the submitting thread's trace, nested
    // under its currently open span.
    let trace_ctx = ninec_obs::trace_context();
    std::thread::scope(|scope| {
        for w in 1..workers {
            scope.spawn(move || {
                ninec_obs::set_trace_context(trace_ctx.0, trace_ctx.1);
                let _ = ninec_obs::set_trace_worker(w as u32);
                worker(w);
                // The scope's join sees the closure end, not the thread
                // exit whose TLS destructor would flush: flush here, so
                // the events are in the global ring when the call returns.
                ninec_obs::flush_thread_trace();
            });
        }
        // The calling thread is worker 0; its own worker id is restored
        // afterwards, since the thread outlives this call.
        let prev_worker = ninec_obs::set_trace_worker(0);
        worker(0);
        let _ = ninec_obs::set_trace_worker(prev_worker);
    });
    slots
        .into_iter()
        .map(|slot| {
            // Every position was claimed once and filled; an empty slot
            // would mean a worker died outside catch_unwind, which the
            // isolation boundary makes unreachable — but stay total.
            slot.into_inner().unwrap_or_else(|| {
                JobOutcome::Panicked(JobPanic {
                    message: "worker exited without storing a result".to_string(),
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn all_high(_: usize) -> Priority {
        Priority::High
    }

    #[test]
    fn results_are_index_ordered_regardless_of_priority() {
        for threads in [1usize, 2, 8] {
            let out = run_cancellable(
                threads,
                37,
                |i| {
                    if i % 3 == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    }
                },
                None,
                |i| i * i,
            );
            let vals: Vec<usize> = out
                .into_iter()
                .map(|r| match r {
                    JobOutcome::Done(v) => v,
                    other => panic!("no panics: {other:?}"),
                })
                .collect();
            assert_eq!(vals, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once_across_priorities() {
        let hits: Vec<AtomicUsize> = (0..96).map(|_| AtomicUsize::new(0)).collect();
        let out = run_cancellable(
            8,
            96,
            |i| {
                if i < 48 {
                    Priority::High
                } else {
                    Priority::Low
                }
            },
            None,
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
        run_cancellable(
            1,
            10,
            |i| {
                if i % 2 == 0 {
                    Priority::Low
                } else {
                    Priority::High
                }
            },
            None,
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
            let out = run_cancellable(
                THREADS,
                HIGH + LOW,
                |i| {
                    if i < HIGH {
                        Priority::High
                    } else {
                        Priority::Low
                    }
                },
                None,
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
                .all(|(i, r)| r == &JobOutcome::Done(i)));
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
            let out = run_cancellable(
                threads,
                16,
                |i| {
                    if i >= 12 {
                        Priority::Low
                    } else {
                        Priority::High
                    }
                },
                None,
                |i| {
                    if i == 14 {
                        panic!("backfill boom {i}");
                    }
                    i
                },
            );
            for (i, r) in out.iter().enumerate() {
                if i == 14 {
                    let JobOutcome::Panicked(p) = r else {
                        panic!("job 14 panicked: {r:?}");
                    };
                    assert!(p.message.contains("backfill boom 14"), "{p:?}");
                } else {
                    assert_eq!(r, &JobOutcome::Done(i), "threads={threads} job {i}");
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
        let seen = run_cancellable(4, 12, all_high, None, |_| active_jobs());
        for r in &seen {
            let &JobOutcome::Done(inside) = r else {
                panic!("no panics: {r:?}");
            };
            assert!(inside >= 12, "a job observed only {inside} active jobs");
        }
        // The batch retires even when a job panics (RAII on unwind). The
        // tally is shared with concurrently running tests, so wait for it
        // to dip back to the starting floor instead of asserting once: a
        // leaked batch would keep it permanently above.
        let _ = run_cancellable(2, 4, all_high, None, |i| {
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
        assert!(run_cancellable(8, 0, all_high, None, |i| i).is_empty());
        let one = run_cancellable(8, 1, |_| Priority::Low, None, |i| i + 7);
        assert_eq!(one[0], JobOutcome::Done(7));
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
        let out = run_cancellable::<usize, _, _>(4, 8, all_high, None, |i| panic!("all down {i}"));
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|r| matches!(r, JobOutcome::Panicked(_))));
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let out = run_cancellable::<usize, _, _>(1, 1, all_high, None, |_| {
            std::panic::panic_any(42usize)
        });
        let JobOutcome::Panicked(p) = &out[0] else {
            panic!("panicked: {:?}", out[0]);
        };
        assert_eq!(p.message, "non-string panic payload");
    }

    /// The calling thread is worker 0: at one thread it runs every job,
    /// and at four it runs jobs beside at most three spawned workers.
    /// Each job of the four-thread run waits (bounded, so a wrong
    /// executor fails instead of hanging) until four jobs have started,
    /// which holds every worker to at least one job.
    #[test]
    fn the_calling_thread_runs_jobs() {
        let caller = std::thread::current().id();
        let serial = map_indexed(1, 8, |_| std::thread::current().id());
        assert!(serial.iter().all(|&id| id == caller), "{serial:?}");

        let started = AtomicUsize::new(0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let ids = map_indexed(4, 16, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 4 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "four jobs never ran at once"
                );
                std::thread::yield_now();
            }
            std::thread::current().id()
        });
        assert!(ids.contains(&caller), "the caller ran no job: {ids:?}");
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() <= 4, "{} workers ran jobs", distinct.len());
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
