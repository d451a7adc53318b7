//! The worker pool: job model, outcomes, and the deterministic
//! collector.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Stable identity of a job: its index in the vector handed to
/// [`run`]. Results are ordered by this, never by completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

/// One unit of work: a labelled fallible closure.
///
/// The closure's `Err` is for *expected* failures (a workload that
/// traps, a case that fails to compile); a panic is mapped to
/// [`JobOutcome::Panicked`] by the pool.
pub struct Job<T> {
    label: String,
    work: Box<dyn FnOnce() -> Result<T, String> + Send + 'static>,
}

impl<T> Job<T> {
    /// Wraps a fallible closure.
    pub fn new(
        label: impl Into<String>,
        work: impl FnOnce() -> Result<T, String> + Send + 'static,
    ) -> Self {
        Job {
            label: label.into(),
            work: Box::new(work),
        }
    }

    /// Wraps a closure that only fails by panicking.
    pub fn infallible(label: impl Into<String>, work: impl FnOnce() -> T + Send + 'static) -> Self {
        Job::new(label, move || Ok(work()))
    }

    /// The job's display label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// The failure taxonomy: how a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The closure returned `Ok`.
    Ok(T),
    /// The closure returned `Err` (an expected, structured failure).
    Failed(String),
    /// The closure panicked; the payload message is captured.
    Panicked(String),
}

impl<T> JobOutcome<T> {
    /// Collapses the taxonomy into a `Result` with a prefixed error
    /// message (`failed:` / `panicked:`).
    pub fn into_result(self) -> Result<T, String> {
        match self {
            JobOutcome::Ok(v) => Ok(v),
            JobOutcome::Failed(e) => Err(format!("failed: {e}")),
            JobOutcome::Panicked(m) => Err(format!("panicked: {m}")),
        }
    }
}

/// One job's result. `wall` is measurement, not identity: two runs of
/// the same job vector agree on everything *except* `wall`.
#[derive(Debug, Clone)]
pub struct JobResult<T> {
    /// The job's stable identity.
    pub id: JobId,
    /// The job's label, copied from the submitted [`Job`].
    pub label: String,
    /// How it ended.
    pub outcome: JobOutcome<T>,
    /// Wall-clock duration of the closure (nondeterministic).
    pub wall: Duration,
}

/// A non-`Ok` job, flattened for reporting (see [`collect_ok`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedJob {
    /// The job's stable identity.
    pub id: JobId,
    /// The job's label.
    pub label: String,
    /// Prefixed error message (see [`JobOutcome::into_result`]).
    pub error: String,
}

/// Runs every job on `workers` threads (clamped to at least 1 and at
/// most the job count) and returns the results **ordered by
/// [`JobId`]** — independent of worker count and completion order.
///
/// Jobs are claimed from one shared queue (work stealing by
/// construction: a free worker takes the next unclaimed job), so a
/// slow job never blocks the rest of the table.
pub fn run<T: Send + 'static>(jobs: Vec<Job<T>>, workers: usize) -> Vec<JobResult<T>> {
    let total = jobs.len();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut results: Vec<Option<JobResult<T>>> = Vec::with_capacity(total);
    results.resize_with(total, || None);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, total.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    // The lock is held only across `next()`, which cannot
                    // panic, so it is never poisoned.
                    while let Ok(Some((i, job))) = queue.lock().map(|mut q| q.next()) {
                        let start = Instant::now();
                        let outcome = classify(catch_unwind(AssertUnwindSafe(job.work)));
                        done.push(JobResult {
                            id: JobId(i),
                            label: job.label,
                            outcome,
                            wall: start.elapsed(),
                        });
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            // Jobs run under `catch_unwind`; a worker panic is a harness
            // bug, re-raised rather than hidden.
            let done = handle
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));
            for r in done {
                let idx = r.id.0;
                results[idx] = Some(r);
            }
        }
    });
    let out: Vec<JobResult<T>> = results.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), total, "every job must produce a result");
    out
}

/// Splits results into the `Ok` values (in [`JobId`] order) and the
/// flattened failures.
pub fn collect_ok<T>(results: Vec<JobResult<T>>) -> (Vec<T>, Vec<FailedJob>) {
    let mut ok = Vec::new();
    let mut failed = Vec::new();
    for r in results {
        match r.outcome.into_result() {
            Ok(v) => ok.push(v),
            Err(error) => failed.push(FailedJob {
                id: r.id,
                label: r.label,
                error,
            }),
        }
    }
    (ok, failed)
}

fn classify<T>(caught: Result<Result<T, String>, Box<dyn Any + Send>>) -> JobOutcome<T> {
    match caught {
        Ok(Ok(v)) => JobOutcome::Ok(v),
        Ok(Err(e)) => JobOutcome::Failed(e),
        Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
